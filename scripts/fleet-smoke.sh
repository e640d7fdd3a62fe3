#!/usr/bin/env sh
# End-to-end smoke test of three independent cdcsd replicas driven by
# the cdcs-load traffic generator, which spreads arrivals across them.
# Two modes:
#
#   fleet (default): start 3 replicas, run a steady-rate phase and
#     then a deliberate overload phase (tight -shed-watermarks, ~120
#     QPS), and jq-assert the generator's JSON reports — zero hard
#     errors, work completed on all 3 replicas, p99 under a generous
#     bound, and shed observed under overload but not runaway.
#
#   quick: one replica, one short burst — the `make load` demo.
#
# Used by `make fleet-smoke` / `make load` and CI's fleet-smoke job.
# Requires curl and jq; uses POSIX sh only.
set -eu

MODE="${1:-fleet}"
BASE_PORT="${CDCS_FLEET_PORT:-18180}"
BIN="${BIN:-bin}"
LOG="$BIN/fleet-smoke.log"
PIDS=""

mkdir -p "$BIN"
go build -o "$BIN/cdcsd" ./cmd/cdcsd
go build -o "$BIN/cdcs-load" ./cmd/cdcs-load
: > "$LOG"

fail() {
    echo "fleet-smoke: FAIL: $1" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT INT TERM

wait_ready() {
    for _ in $(seq 1 50); do
        if curl -fsS "http://127.0.0.1:$1/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "replica on port $1 never became ready"
}

# assert FILE JQ_EXPR DESCRIPTION — jq -e the report or die with it.
assert() {
    jq -e "$2" "$1" >/dev/null \
        || fail "$3 ($2 on $(cat "$1"))"
}

if [ "$MODE" = quick ]; then
    PORT=$BASE_PORT
    "$BIN/cdcsd" -addr "127.0.0.1:$PORT" -log-level warn >/dev/null 2>>"$LOG" &
    PIDS="$!"
    wait_ready "$PORT"
    REPORT="$BIN/load-report.json"
    "$BIN/cdcs-load" -targets "http://127.0.0.1:$PORT" \
        -qps 20 -duration 3s -deadline 30s -report "$REPORT" 2>>"$LOG" \
        || fail "cdcs-load run failed"
    assert "$REPORT" '.completed > 0' "no requests completed"
    assert "$REPORT" '.errors == 0' "hard errors against an idle daemon"
    assert "$REPORT" '.deadline_missed == 0' "deadline misses against an idle daemon"
    cat "$REPORT"
    echo "fleet-smoke: OK (quick: $(jq -r '.completed' "$REPORT") jobs completed)"
    exit 0
fi

[ "$MODE" = fleet ] || fail "unknown mode $MODE (want fleet or quick)"

# ---- Start 3 independent replicas with tight watermarks so the
# overload phase actually sheds.
P1=$BASE_PORT
P2=$((BASE_PORT + 1))
P3=$((BASE_PORT + 2))
TARGETS="http://127.0.0.1:$P1,http://127.0.0.1:$P2,http://127.0.0.1:$P3"
for port in $P1 $P2 $P3; do
    "$BIN/cdcsd" -addr "127.0.0.1:$port" -log-level warn \
        -max-jobs 2 -retain 1024 -shed-watermarks 6:12 \
        >/dev/null 2>>"$LOG" &
    PIDS="$PIDS $!"
done
for port in $P1 $P2 $P3; do
    wait_ready "$port"
done

# ---- Steady phase: comfortably under capacity, nothing drops.
STEADY="$BIN/fleet-steady.json"
"$BIN/cdcs-load" -targets "$TARGETS" \
    -qps 5 -duration 5s -deadline 60s -report "$STEADY" 2>>"$LOG" \
    || fail "steady cdcs-load run failed"
assert "$STEADY" '.completed > 0' "steady phase completed nothing"
assert "$STEADY" '.errors == 0' "steady phase hit hard errors"
assert "$STEADY" '.deadline_missed == 0' "steady phase missed deadlines"
assert "$STEADY" '.replicas | length == 3' "steady phase did not use all 3 replicas"
assert "$STEADY" '.balance > 0' "steady phase left a replica idle"
assert "$STEADY" '.latency.p99_ms < 30000' "steady p99 blew the generous bound"

# ---- Overload phase: ~10x the steady rate into 6:12 watermarks.
# Shedding is the correct behavior here — what must NOT happen is a
# hard error or a total collapse of completions. Whether the queues
# fill must not depend on how fast synthesis is (a wan job takes a few
# milliseconds), so just before the burst two holders park both job
# slots of every replica. A holder is an 18-channel on-chip instance
# far too large to finish (`cdcs-gen -kind soc -channels 18 -modules 12
# -seed 7`, sharing soc12's library; tens of thousands of mergings are
# still unpriced at the deadline) run on one worker under a 3 s
# deadline, so it keeps its slot for 3 s however fast synthesis gets.
# Arrivals queue past the shed watermark meanwhile, and the queues
# drain once the holders return.
holder=$(jq -nc --slurpfile g scripts/testdata/soc18.graph.json \
    --slurpfile l scripts/testdata/soc12.lib.json \
    '{workload: "holder", graph: $g[0], library: $l[0], options: {workers: 1, timeoutMs: 3000}}')
for port in $P1 $P2 $P3; do
    for _ in 1 2; do
        printf '%s' "$holder" | curl -fsS -X POST "http://127.0.0.1:$port/v1/synthesize" -d @- >/dev/null \
            || fail "holder submit to replica $port failed"
    done
done
OVER="$BIN/fleet-overload.json"
"$BIN/cdcs-load" -targets "$TARGETS" \
    -qps 120 -duration 5s -deadline 60s -report "$OVER" 2>>"$LOG" \
    || fail "overload cdcs-load run failed"
assert "$OVER" '.shed > 0' "overload phase never shed (watermarks not biting)"
assert "$OVER" '.completed > 0' "overload phase completed nothing"
assert "$OVER" '.errors == 0' "overload phase hit hard errors"
assert "$OVER" '.shed_rate < 1' "overload phase shed everything"
assert "$OVER" '.replicas | length == 3' "overload phase did not use all 3 replicas"
assert "$OVER" '.latency.p99_ms < 60000' "overload p99 blew the generous bound"

# ---- Graceful drain: every replica exits cleanly on SIGTERM.
for pid in $PIDS; do
    kill "$pid" 2>/dev/null || true
done
for pid in $PIDS; do
    i=0
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 150 ] && fail "replica $pid did not exit within 15s of SIGTERM"
        sleep 0.1
    done
done
trap - EXIT INT TERM

echo "fleet-smoke: OK (steady: $(jq -r '.completed' "$STEADY") completed;" \
    "overload: $(jq -r '.completed' "$OVER") completed," \
    "$(jq -r '.shed' "$OVER") shed, p99 $(jq -r '.latency.p99_ms | round' "$OVER") ms," \
    "balance $(jq -r '.balance * 100 | round / 100' "$OVER"))"
