GO      ?= go
BIN     := bin
VETTOOL := $(CURDIR)/$(BIN)/cdcsvet

.PHONY: all build test race vet lint lint-self tools bench-gate bench-seed bench-alloc trace-example trace-smoke serve-smoke fleet-smoke load clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Standard toolchain vet.
vet:
	$(GO) vet ./...

# Build the repository's analyzer suite (see docs/LINT.md).
tools:
	$(GO) build -o $(VETTOOL) ./cmd/cdcsvet

# Run the cdcsvet analyzers over every package, test files included.
lint: tools
	$(GO) vet -vettool=$(VETTOOL) ./...

# Hold the analyzer framework to its own rules: the lint tree is part
# of ./... above, but a dedicated target keeps the self-check visible
# and runnable in isolation while iterating on an analyzer.
lint-self: tools
	$(GO) vet -vettool=$(VETTOOL) ./internal/lint/... ./cmd/cdcsvet/...

# Run the short benchmark suite with algorithm counters and gate it
# against the committed seed trajectory (BENCH_seed.json): wall time
# within +30%, deterministic counters matched exactly. See
# docs/OBSERVABILITY.md.
bench-gate:
	@mkdir -p $(BIN)
	$(GO) run ./cmd/cdcs-bench -short -json $(BIN)/bench.json
	$(GO) run ./cmd/bench-diff -seed BENCH_seed.json -run $(BIN)/bench.json

# Regenerate the committed seed after a deliberate algorithmic change
# (commit the new BENCH_seed.json together with the change).
bench-seed:
	$(GO) run ./cmd/cdcs-bench -short -json BENCH_seed.json

# Gate the memory budgets: measured allocations per priced candidate
# on the WAN and NoC workloads (internal/synth/alloc_test.go), and the
# heap a finished cdcsd job retains (internal/serve/memory_test.go),
# must stay within their checked-in budgets.
bench-alloc:
	$(GO) test ./internal/synth -run 'TestAllocBudget' -count=1 -v
	$(GO) test ./internal/serve -run 'TestPerJobHeapBudget' -count=1 -v

# End-to-end smoke test of the cdcsd serving daemon: start it, submit
# the wan example, assert SSE incumbent events and Prometheus-format
# /metrics, and shut it down gracefully. See scripts/serve-smoke.sh.
serve-smoke:
	sh scripts/serve-smoke.sh

# Distributed-tracing smoke test: one daemon, one traced remote run
# via `cdcs -server ... -trace`, jq assertions on the stitched Chrome
# trace file. See scripts/trace-smoke.sh.
trace-smoke:
	sh scripts/trace-smoke.sh

# Fleet smoke test: 3 independent cdcsd replicas, a steady and an
# overload cdcs-load phase spread across them, jq assertions on the
# JSON reports (errors, balance, p99, shed). See scripts/fleet-smoke.sh.
fleet-smoke:
	sh scripts/fleet-smoke.sh fleet

# Quick load demo: one daemon, one short cdcs-load burst, report on
# stdout.
load:
	sh scripts/fleet-smoke.sh quick

# Produce an example Chrome trace of the WAN synthesis — open
# $(BIN)/wan-trace.json in chrome://tracing or ui.perfetto.dev.
trace-example:
	@mkdir -p $(BIN)
	$(GO) run ./cmd/cdcs -example wan -trace $(BIN)/wan-trace.json -metrics

clean:
	rm -rf $(BIN)
