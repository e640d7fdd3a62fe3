#!/usr/bin/env sh
# End-to-end smoke test of the cdcsd serving daemon: build it, start
# it on a free port, wait for readiness, submit the built-in wan
# example, follow the job to completion, and assert that the result is
# optimal, that the SSE stream carries incumbent events, and that
# /metrics exposes the algorithm counters in Prometheus text format.
# A second leg proves crash recovery: a daemon with -data-dir is
# kill -9'd mid-job, restarted on the same directory, and must serve
# the finished job's result unchanged while re-running the
# interrupted job marked "restarted". A trace leg asserts
# the finished job's span forest on GET /v1/jobs/{id}/trace: rooted at
# serve/job with the admission, queue-wait, and synth phase spans
# nested below, plus a Chrome-format rendering of the same tree. The
# first daemon's log must hold exactly one INFO record for the wan
# job: "job done", carrying the job's trace ID.
# Used by `make serve-smoke` and CI's serve-smoke job. Requires curl
# and jq; uses no other tooling beyond the Go toolchain and POSIX sh.
set -eu

PORT="${CDCSD_PORT:-18080}"
ADDR="127.0.0.1:$PORT"
BIN="${BIN:-bin}"
LOG="$BIN/cdcsd-smoke.log"

mkdir -p "$BIN"
go build -o "$BIN/cdcsd" ./cmd/cdcsd

"$BIN/cdcsd" -addr "$ADDR" -log-level debug >/dev/null 2>"$LOG" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

# Readiness: poll /readyz until the daemon accepts connections.
wait_ready() {
    for _ in $(seq 1 50); do
        if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "/readyz never became ready"
}
wait_ready

# Liveness carries the build version.
curl -fsS "http://$ADDR/healthz" | grep -q '"status": *"ok"' \
    || fail "/healthz did not report ok"

# Submit the wan example and extract the job id without jq.
job=$(curl -fsS -X POST "http://$ADDR/v1/synthesize" \
    -d '{"example":"wan","options":{"workers":2}}')
id=$(printf '%s' "$job" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$id" ] || fail "no job id in submit response: $job"
tid=$(printf '%s' "$job" | jq -r '.traceId')

# Follow the job to a terminal state.
state=""
for _ in $(seq 1 100); do
    state=$(curl -fsS "http://$ADDR/v1/jobs/$id" \
        | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    [ "$state" = done ] && break
    [ "$state" = failed ] && fail "job failed: $(curl -fsS "http://$ADDR/v1/jobs/$id")"
    sleep 0.1
done
[ "$state" = done ] || fail "job did not finish (state: $state)"

result=$(curl -fsS "http://$ADDR/v1/jobs/$id")
printf '%s' "$result" | grep -q '"optimal": *true' \
    || fail "job result is not optimal: $result"

# The SSE replay must contain the run bracket and incumbent events.
events=$(curl -fsS -N --max-time 10 "http://$ADDR/v1/jobs/$id/events")
printf '%s' "$events" | grep -q '^event: run_start$' || fail "SSE stream has no run_start"
printf '%s' "$events" | grep -q '^event: incumbent$' || fail "SSE stream has no incumbent event"
printf '%s' "$events" | grep -q '^event: run_end$'   || fail "SSE stream has no run_end"

# ---- Trace leg: the finished job's span forest is rooted at
# serve/job and carries the serving-side and synthesis phase spans.
trace=$(curl -fsS "http://$ADDR/v1/jobs/$id/trace")
printf '%s' "$trace" | jq -e '.traceId | test("^[0-9a-f]{32}$")' >/dev/null \
    || fail "trace has no 128-bit traceId: $trace"
printf '%s' "$trace" | jq -e '.spans[0].name == "serve/job"' >/dev/null \
    || fail "trace is not rooted at serve/job: $trace"
for span in serve/admission serve/queue-wait synth/run p2p/plan merging/enumerate synth/solve; do
    printf '%s' "$trace" \
        | jq -e --arg n "$span" '[.. | objects | .name? // empty] | any(. == $n)' >/dev/null \
        || fail "trace has no $span span: $trace"
done
curl -fsS "http://$ADDR/v1/jobs/$id/trace?format=chrome" \
    | jq -e '[.[] | select(.ph == "X")] | length > 0' >/dev/null \
    || fail "chrome-format trace has no complete events"

# /metrics speaks Prometheus text format and carries the counters.
metrics=$(curl -fsS "http://$ADDR/metrics")
printf '%s\n' "$metrics" | grep -q '^# TYPE ucp_incumbents_total counter$' \
    || fail "/metrics has no ucp_incumbents_total TYPE line"
printf '%s\n' "$metrics" | grep -q '^serve_jobs_completed_total 1$' \
    || fail "/metrics did not count the completed job"
printf '%s\n' "$metrics" | grep -Eq '^ucp_nodes_total [0-9]+$' \
    || fail "/metrics has no ucp_nodes_total sample"

# Graceful shutdown: SIGTERM drains and the process exits cleanly.
kill "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "daemon did not exit within 10s of SIGTERM"
    sleep 0.1
done
trap - EXIT INT TERM

# One INFO record per job: the wan job's "job done", carrying its
# trace ID. Its access lines and submit/start records are DEBUG. Read
# after the drain, which waits for the job to write that record.
info=$(jq -c --arg id "$id" 'select(.level == "INFO" and .job_id == $id)' "$LOG")
n=$(printf '%s\n' "$info" | grep -c .) || true
[ "$n" -eq 1 ] || fail "daemon log has $n INFO records for job $id, want 1: $info"
printf '%s' "$info" | jq -e --arg tid "$tid" '.msg == "job done" and .trace_id == $tid' >/dev/null \
    || fail "job $id's INFO record is not job done with trace_id $tid: $info"

# ---- Crash-recovery leg: kill -9 mid-job, restart on the same data dir.
DATA="$BIN/cdcsd-smoke-data"
rm -rf "$DATA"

"$BIN/cdcsd" -addr "$ADDR" -log-level debug -data-dir "$DATA" >/dev/null 2>>"$LOG" &
PID=$!
trap 'kill -9 "$PID" 2>/dev/null || true' EXIT INT TERM
wait_ready

# Job A finishes before the crash; its result must survive verbatim.
jobA=$(curl -fsS -X POST "http://$ADDR/v1/synthesize" \
    -d '{"example":"wan","options":{"workers":2}}')
idA=$(printf '%s' "$jobA" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$idA" ] || fail "no job id in durable submit response: $jobA"
state=""
for _ in $(seq 1 100); do
    state=$(curl -fsS "http://$ADDR/v1/jobs/$idA" \
        | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    [ "$state" = done ] && break
    sleep 0.1
done
[ "$state" = done ] || fail "durable job A did not finish (state: $state)"
costA=$(curl -fsS "http://$ADDR/v1/jobs/$idA" | sed -n 's/.*"cost": *\([0-9.]*\).*/\1/p')

# The slow job the kill -9 must catch mid-run: a 12-channel on-chip
# instance that takes seconds on one worker, committed as the output of
# `cdcs-gen -kind soc -channels 12 -modules 9 -seed 7`.
slow=$(jq -nc --slurpfile g scripts/testdata/soc12.graph.json \
    --slurpfile l scripts/testdata/soc12.lib.json \
    '{graph: $g[0], library: $l[0], options: {workers: 1}}')

# Job B is the slow instance: the kill below lands mid-run, so the
# restarted daemon must re-queue it.
jobB=$(printf '%s' "$slow" | curl -fsS -X POST "http://$ADDR/v1/synthesize" -d @-)
idB=$(printf '%s' "$jobB" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$idB" ] || fail "no job id in durable submit response: $jobB"

# Job B must still be running, or the leg below would test nothing; a
# host fast enough to finish it first fails here.
state=$(curl -fsS "http://$ADDR/v1/jobs/$idB" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
[ "$state" != done ] || fail "slow job B finished before the kill -9; the crash leg needs a slower instance"

kill -9 "$PID"
wait "$PID" 2>/dev/null || true

"$BIN/cdcsd" -addr "$ADDR" -log-level debug -data-dir "$DATA" >/dev/null 2>>"$LOG" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT INT TERM
wait_ready

# The finished job must come back queryable with the same result.
resultA=$(curl -fsS "http://$ADDR/v1/jobs/$idA")
printf '%s' "$resultA" | grep -q '"state": *"done"' \
    || fail "finished job A not restored after kill -9: $resultA"
printf '%s' "$resultA" | grep -q "\"cost\": *$costA" \
    || fail "restored job A cost changed (want $costA): $resultA"
# Its SSE replay still serves a complete bracket.
eventsA=$(curl -fsS -N --max-time 10 "http://$ADDR/v1/jobs/$idA/events")
printf '%s' "$eventsA" | grep -q '^event: run_start$' || fail "restored SSE has no run_start"
printf '%s' "$eventsA" | grep -q '^event: run_end$'   || fail "restored SSE has no run_end"

# The interrupted job must re-run to completion, marked restarted.
state=""
for _ in $(seq 1 300); do
    state=$(curl -fsS "http://$ADDR/v1/jobs/$idB" \
        | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    [ "$state" = done ] && break
    [ "$state" = failed ] && fail "re-queued job B failed: $(curl -fsS "http://$ADDR/v1/jobs/$idB")"
    sleep 0.1
done
[ "$state" = done ] || fail "re-queued job B did not finish (state: $state)"
curl -fsS "http://$ADDR/v1/jobs/$idB" | grep -q '"restarted": *true' \
    || fail "re-run job B is not marked restarted"

# The durability and admission instruments are on /metrics.
metrics=$(curl -fsS "http://$ADDR/metrics")
printf '%s\n' "$metrics" | grep -Eq '^durable_wal_records_total [0-9]+$' \
    || fail "/metrics has no durable_wal_records_total sample"
printf '%s\n' "$metrics" | grep -Eq '^serve_shed_accepted_total [0-9]+$' \
    || fail "/metrics has no serve_shed_accepted_total sample"

kill "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "restarted daemon did not exit within 10s of SIGTERM"
    sleep 0.1
done
trap - EXIT INT TERM

echo "serve-smoke: OK (job $id optimal, SSE incumbents seen, trace spans asserted, metrics scraped; crash recovery: $idA restored, $idB re-run)"
