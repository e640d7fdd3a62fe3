package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a deterministic clock advancing 1ms per call.
func fakeClock() func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestNilSinkIsInert(t *testing.T) {
	var s *Sink
	if s.Tracer() != nil || s.Metrics() != nil {
		t.Fatal("nil sink must hand out nil collectors")
	}
	// Every instrument operation on the nil chain must be a no-op, not
	// a panic.
	s.Metrics().Counter("x").Add(1)
	s.Metrics().Gauge("x").Set(1)
	s.Metrics().Histogram("x", 1, 2).Record(1)
	if got := s.Metrics().Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	snap := s.Metrics().Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestTraceWithoutSinkIsPassThrough(t *testing.T) {
	ctx := context.Background()
	ctx2, end := Trace(ctx, "synth/run")
	if ctx2 != ctx {
		t.Fatal("Trace without a sink must return ctx unchanged")
	}
	end() // must not panic
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on a bare context must be nil")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	sink := New(Config{Tracing: true, Now: fakeClock()})
	ctx := NewContext(context.Background(), sink)

	rctx, endRun := Trace(ctx, "synth/run", Int("channels", 8))
	_, endChild := Trace(rctx, "merging/enumerate")
	endChild(Int("candidates", 51))
	endRun()

	roots := sink.Tracer().Roots()
	if len(roots) != 1 || roots[0].Name != "synth/run" {
		t.Fatalf("roots = %+v", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "merging/enumerate" {
		t.Fatalf("children = %+v", roots[0].Children)
	}
	if v, ok := roots[0].Children[0].Attr("candidates"); !ok || v != "51" {
		t.Fatalf("end attr not recorded: %+v", roots[0].Children[0].Attrs)
	}
	if v, ok := roots[0].Attr("channels"); !ok || v != "8" {
		t.Fatalf("start attr not recorded: %+v", roots[0].Attrs)
	}
	if roots[0].Children[0].DurUs <= 0 {
		t.Fatal("child span has no duration")
	}
}

func TestTraceExportsDeterministic(t *testing.T) {
	runOnce := func() ([]byte, []byte) {
		sink := New(Config{Tracing: true, Now: fakeClock()})
		ctx := NewContext(context.Background(), sink)
		rctx, endRun := Trace(ctx, "synth/run")
		for _, name := range []string{"p2p/plan", "merging/enumerate", "ucp/solve"} {
			_, end := Trace(rctx, name, String("k", "v"))
			end(Int("n", 3))
		}
		endRun(Float("cost", 1234.5))
		tree, err := json.Marshal(sink.Tracer().Roots())
		if err != nil {
			t.Fatal(err)
		}
		chrome, err := sink.Tracer().ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		return tree, chrome
	}
	tree1, chrome1 := runOnce()
	tree2, chrome2 := runOnce()
	if !bytes.Equal(tree1, tree2) {
		t.Errorf("span-tree JSON not byte-identical:\n%s\nvs\n%s", tree1, tree2)
	}
	if !bytes.Equal(chrome1, chrome2) {
		t.Errorf("Chrome trace not byte-identical:\n%s\nvs\n%s", chrome1, chrome2)
	}
	if !bytes.Contains(chrome1, []byte(`"ph":"X"`)) {
		t.Errorf("Chrome trace lacks complete events:\n%s", chrome1)
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	runOnce := func(order []string) []byte {
		r := NewRegistry()
		for _, name := range order {
			r.Counter(name).Add(int64(len(name)))
		}
		r.Gauge("z/gauge").Set(7)
		h := r.Histogram("h/hist", 2, 4)
		h.Record(1)
		h.Record(3)
		h.Record(9)
		data, err := r.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// Same instruments created in different orders must snapshot to
	// identical bytes (name-sorted sections).
	a := runOnce([]string{"b/two", "a/one", "c/three"})
	b := runOnce([]string{"c/three", "b/two", "a/one"})
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots differ by creation order:\n%s\nvs\n%s", a, b)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 10, 100)
	for _, v := range []int64{5, 10, 11, 100, 101, 5000} {
		h.Record(v)
	}
	snap := r.Snapshot()
	hv := snap.Histograms[0]
	if hv.Count != 6 || hv.Sum != 5+10+11+100+101+5000 {
		t.Fatalf("count/sum = %d/%d", hv.Count, hv.Sum)
	}
	want := []int64{2, 2} // ≤10: {5,10}; ≤100: {11,100}
	for i, b := range hv.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d = %+v, want count %d", i, b, want[i])
		}
	}
	if hv.Overflow != 2 {
		t.Fatalf("overflow = %d", hv.Overflow)
	}
}

func TestConcurrentInstrumentsAndSpans(t *testing.T) {
	sink := New(Config{Tracing: true, Metrics: true, PprofLabels: true})
	ctx := NewContext(context.Background(), sink)
	rctx, endRun := Trace(ctx, "synth/run")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ApplyGoroutineLabels(rctx)
			c := sink.Metrics().Counter("workers/ops")
			h := sink.Metrics().Histogram("workers/val", 8, 64)
			g := sink.Metrics().Gauge("workers/depth")
			for i := 0; i < 1000; i++ {
				_, end := Trace(rctx, "worker/op")
				c.Add(1)
				h.Record(int64(i % 100))
				g.Add(1)
				g.Add(-1)
				end()
			}
		}()
	}
	wg.Wait()
	endRun()

	if got := sink.Metrics().Counter("workers/ops").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	roots := sink.Tracer().Roots()
	if len(roots) != 1 || len(roots[0].Children) != 8000 {
		t.Fatalf("span forest shape wrong: %d roots, %d children",
			len(roots), len(roots[0].Children))
	}
}

func TestCounterMapAndShorthands(t *testing.T) {
	sink := New(Config{Metrics: true})
	ctx := NewContext(context.Background(), sink)
	FromContext(ctx).Metrics().Counter("a").Add(3)
	FromContext(ctx).Metrics().Gauge("g").Set(9)
	m := sink.Metrics().Snapshot().CounterMap()
	if m["a"] != 3 {
		t.Fatalf("CounterMap = %v", m)
	}
	// A sink-less context's handles are inert.
	FromContext(context.Background()).Metrics().Counter("a").Add(1)
	if got := sink.Metrics().Counter("a").Value(); got != 3 {
		t.Fatalf("counter leaked across contexts: %d", got)
	}
}

func TestWithLabelsTolerant(t *testing.T) {
	// Odd-length and empty kv lists must not panic.
	ctx := WithLabels(context.Background(), "workload", "wan", "dangling")
	ctx = WithLabels(ctx)
	_ = ctx
}
