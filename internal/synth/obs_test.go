package synth

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"repro/internal/merging"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// obsFakeClock returns a deterministic clock advancing 1ms per call,
// so span timestamps are a pure function of the call sequence.
func obsFakeClock() func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// TestObservabilityDeterministic runs the same WAN synthesis twice
// with fresh fake-clocked sinks and requires byte-identical trace JSON
// (both exports) and metric snapshots. Workers=1 keeps the fake
// clock's readings in one order; everything else is a pure function of
// the instance (the mapiter/collect-then-sort rules of docs/LINT.md
// keep it that way).
func TestObservabilityDeterministic(t *testing.T) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	runOnce := func() (trace, chrome, metrics []byte) {
		sink := obs.New(obs.Config{Tracing: true, Metrics: true, Now: obsFakeClock()})
		ctx := obs.NewContext(context.Background(), sink)
		_, _, err := SynthesizeContext(ctx, cg, lib, Options{
			Merging: merging.Options{Policy: merging.MaxIndexRef},
			Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		trace, err = json.Marshal(sink.Tracer().Roots())
		if err != nil {
			t.Fatal(err)
		}
		chrome, err = sink.Tracer().ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		metrics, err = sink.Metrics().Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return trace, chrome, metrics
	}
	trace1, chrome1, metrics1 := runOnce()
	trace2, chrome2, metrics2 := runOnce()
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("trace JSON not byte-identical across identical runs:\n%s\n---\n%s", trace1, trace2)
	}
	if !bytes.Equal(chrome1, chrome2) {
		t.Errorf("Chrome trace not byte-identical across identical runs")
	}
	if !bytes.Equal(metrics1, metrics2) {
		t.Errorf("metric snapshots not byte-identical across identical runs:\n%s\n---\n%s", metrics1, metrics2)
	}
}

// TestObservabilitySpanAndCounterContents checks the acceptance shape
// of a traced WAN run: spans for p2p planning, merging enumeration,
// pricing and ucp covering are present under one root, and the pruning
// and search counters the paper's staged algorithm produces are
// nonzero.
func TestObservabilitySpanAndCounterContents(t *testing.T) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	sink := obs.New(obs.Config{Tracing: true, Metrics: true, PprofLabels: true})
	ctx := obs.NewContext(context.Background(), sink)
	_, rep, err := SynthesizeContext(ctx, cg, lib, Options{
		Merging: merging.Options{Policy: merging.MaxIndexRef},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"synth/run", "p2p/plan", "merging/enumerate",
		"synth/price", "synth/solve", "ucp/solve", "synth/materialize",
	} {
		if len(findSpans(sink.Tracer(), name)) == 0 {
			t.Errorf("no %q span in trace", name)
		}
	}
	roots := sink.Tracer().Roots()
	if len(roots) != 1 {
		t.Fatalf("want one root span, got %d", len(roots))
	}
	if price := findSpans(sink.Tracer(), "synth/price"); len(price) == 1 &&
		!slices.Contains(price[0].Attrs, obs.Int("bounded", rep.SkippedByBound)) {
		t.Errorf("synth/price attrs %+v lack bounded=%d", price[0].Attrs, rep.SkippedByBound)
	}

	counters := sink.Metrics().Snapshot().CounterMap()
	for _, name := range []string{
		"merging/sets_tested", "merging/pruned_lemma31", "merging/pruned_lemma32",
		"merging/candidates", "ucp/nodes", "synth/price/pricings",
	} {
		if counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, counters[name])
		}
	}
	// The registry view must agree with the per-run report where both
	// exist — they are two projections of the same run.
	if got := counters["synth/priced_mergings"]; got != int64(rep.PricedMergings) {
		t.Errorf("synth/priced_mergings = %d, report says %d", got, rep.PricedMergings)
	}
	if got := counters["synth/skipped_by_bound"]; got != int64(rep.SkippedByBound) || got == 0 {
		t.Errorf("synth/skipped_by_bound = %d, report says %d (want > 0 on the WAN)", got, rep.SkippedByBound)
	}
	if got, want := counters["synth/price/pricings"], int64(rep.Enumeration.TotalCandidates()-rep.SkippedByBound); got != want {
		t.Errorf("synth/price/pricings = %d, want the %d mergings not skipped by the bound", got, want)
	}
	if got := counters["merging/sets_tested"]; got != int64(rep.Enumeration.SetsTested) {
		t.Errorf("merging/sets_tested = %d, report says %d", got, rep.Enumeration.SetsTested)
	}
	if got := counters["ucp/nodes"]; got != int64(rep.UCPStats.Nodes) {
		t.Errorf("ucp/nodes = %d, report says %d", got, rep.UCPStats.Nodes)
	}
	// Per-rule prune counts must sum to the aggregate.
	enum := rep.Enumeration
	if enum.PrunedLemma31+enum.PrunedLemma32+enum.PrunedTheorem32 != enum.SetsPruned {
		t.Errorf("per-rule prunes %d+%d+%d != total %d",
			enum.PrunedLemma31, enum.PrunedLemma32, enum.PrunedTheorem32, enum.SetsPruned)
	}
}

// TestObserverConcurrentPricingWorkers drives a shared sink from the
// full parallel pricing pool (this is the test `go test -race` leans
// on to prove the sink is safe under worker concurrency) and checks
// that the deterministic counters still match the serial run's.
func TestObserverConcurrentPricingWorkers(t *testing.T) {
	cg := workloads.RandomWAN(workloads.RandomWANConfig{Seed: 7, Clusters: 3, Channels: 10})
	lib := workloads.WANLibrary()

	run := func(workers int) (map[string]int64, int64) {
		sink := obs.New(obs.Config{Tracing: true, Metrics: true, PprofLabels: true})
		ctx := obs.NewContext(context.Background(), sink)
		_, _, err := SynthesizeContext(ctx, cg, lib, Options{
			Merging: merging.Options{Policy: merging.MaxIndexRef},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := sink.Metrics().Snapshot()
		return snap.CounterMap(), snap.Gauges[sliceIndex(t, snap, "synth/price/queue_depth")].Value
	}
	serial, _ := run(1)
	parallel, queueDepth := run(8)

	if queueDepth != 0 {
		t.Errorf("queue_depth gauge = %d after a full run, want 0", queueDepth)
	}
	// Every counter must be identical to the serial run's.
	for name, want := range serial {
		if got := parallel[name]; got != want {
			t.Errorf("counter %q: parallel %d != serial %d", name, got, want)
		}
	}
}

// sliceIndex finds the named gauge in a snapshot.
func sliceIndex(t *testing.T, snap obs.Snapshot, name string) int {
	t.Helper()
	for i, g := range snap.Gauges {
		if g.Name == name {
			return i
		}
	}
	t.Fatalf("gauge %q not in snapshot", name)
	return -1
}

// findSpans returns every span of tr's forest named name, in
// depth-first start order.
func findSpans(tr *obs.Tracer, name string) []*obs.Span {
	var out []*obs.Span
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		if sp.Name == name {
			out = append(out, sp)
		}
		for _, child := range sp.Children {
			walk(child)
		}
	}
	for _, root := range tr.Roots() {
		walk(root)
	}
	return out
}
