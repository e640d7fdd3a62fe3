#!/usr/bin/env sh
# Smoke test of the distributed-tracing surface: start a single cdcsd,
# run `cdcs -server ... -trace` so the CLI submits a traced job and
# writes the span forest of the replica that ran it as a Chrome trace
# file, then assert the file carries the serve/job execution span, the
# synth phase tree, and the replica's process_name metadata.
# serve-smoke.sh checks the per-job trace endpoint and the serve
# package's tests check propagation; this leg pins the user-facing
# collection workflow end to end.
# Used by `make trace-smoke`. Requires curl and jq.
set -eu

PORT="${CDCS_TRACE_PORT:-18280}"
ADDR="127.0.0.1:$PORT"
BIN="${BIN:-bin}"
LOG="$BIN/trace-smoke.log"
OUT="$BIN/remote-trace.json"

mkdir -p "$BIN"
go build -o "$BIN/cdcsd" ./cmd/cdcsd
go build -o "$BIN/cdcs" ./cmd/cdcs

"$BIN/cdcsd" -addr "$ADDR" -log-level debug >/dev/null 2>"$LOG" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT INT TERM

fail() {
    echo "trace-smoke: FAIL: $1" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

for _ in $(seq 1 50); do
    if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1 || fail "/readyz never became ready"

rm -f "$OUT"
"$BIN/cdcs" -server "http://$ADDR" -example wan -trace "$OUT" >>"$LOG" 2>&1 \
    || fail "cdcs -server -trace run failed"
[ -s "$OUT" ] || fail "no stitched trace written to $OUT"

jq -e 'type == "array" and length > 0' "$OUT" >/dev/null \
    || fail "stitched trace is not a non-empty JSON event array"
for span in serve/job serve/admission serve/queue-wait synth/run merging/enumerate; do
    jq -e --arg n "$span" '[.[] | select(.ph == "X") | .name] | any(. == $n)' "$OUT" >/dev/null \
        || fail "stitched trace has no $span event"
done
jq -e '[.[] | select(.ph == "M" and .name == "process_name")] | length >= 1' "$OUT" >/dev/null \
    || fail "stitched trace has no process_name metadata"
jq -e '[.[] | select(.ph == "X") | .pid] | min >= 1' "$OUT" >/dev/null \
    || fail "stitched trace events carry no replica pid"

kill "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "daemon did not exit within 10s of SIGTERM"
    sleep 0.1
done
trap - EXIT INT TERM

echo "trace-smoke: OK ($(jq 'length' "$OUT") events stitched into $OUT)"
