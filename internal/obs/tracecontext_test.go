package obs

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	ids := NewIDSource(42)
	sc := ids.NewRoot()
	if !sc.Valid() {
		t.Fatal("NewRoot must return a valid context")
	}
	h := sc.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") {
		t.Fatalf("traceparent = %q, want 55-byte version-00 header", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != sc {
		t.Fatalf("ParseTraceparent(%q) = %+v/%v, want round trip", h, got, ok)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := NewIDSource(1).NewRoot().Traceparent()
	for _, h := range []string{
		"",
		"garbage",
		valid[:54],                          // truncated
		valid + "0",                         // too long
		"01" + valid[2:],                    // wrong version
		strings.Replace(valid, "-", "_", 1), // bad separator
		"00-" + strings.Repeat("z", 32) + valid[35:],              // non-hex trace ID
		"00-" + strings.Repeat("0", 32) + valid[35:],              // zero trace ID
		valid[:36] + strings.Repeat("0", 16) + "-01",              // zero span ID
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01", // uppercase IDs
		valid[:53] + "0A", // uppercase flags
	} {
		if sc, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) = %+v, want rejection", h, sc)
		}
	}
}

// FuzzParseTraceparent checks ParseTraceparent on arbitrary header
// values: it never panics, and an accepted value is a valid context
// whose own serialization repeats the header's version, trace ID and
// span ID byte for byte (only the flags are normalized), so a parsed
// header always propagates unchanged. The seed corpus in
// testdata/fuzz/FuzzParseTraceparent covers valid headers, each
// malformed shape TestParseTraceparentRejectsMalformed lists, and
// uppercase hex in every field.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("ParseTraceparent(%q) rejected but returned %+v", h, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", h, sc)
		}
		if got := sc.Traceparent(); got[:53] != h[:53] {
			t.Fatalf("ParseTraceparent(%q) re-serializes as %q", h, got)
		}
	})
}

func TestIDSourceSeededDeterministic(t *testing.T) {
	a, b := NewIDSource(7), NewIDSource(7)
	for i := 0; i < 100; i++ {
		ta, tb := a.TraceID(), b.TraceID()
		if ta != tb {
			t.Fatalf("draw %d: trace IDs diverged: %s vs %s", i, ta, tb)
		}
		if ta.IsZero() {
			t.Fatalf("draw %d: zero trace ID", i)
		}
		sa, sb := a.SpanID(), b.SpanID()
		if sa != sb || sa.IsZero() {
			t.Fatalf("draw %d: span IDs = %s vs %s", i, sa, sb)
		}
	}
	if NewIDSource(8).TraceID() == NewIDSource(9).TraceID() {
		t.Error("different seeds produced the same first trace ID")
	}
}

func TestTracerStampsOneTracePerTracer(t *testing.T) {
	tr := NewTracerWithIDs(fakeClock(), NewIDSource(3), SpanContext{})
	root := tr.Start(nil, "serve/job")
	child := tr.Start(root, "serve/admission")
	tr.End(child)
	second := tr.Start(nil, "late-root")
	tr.End(second)
	tr.End(root)

	roots := tr.Roots()
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(roots))
	}
	r, s := roots[0], roots[1]
	if r.TraceID == "" || r.SpanID == "" || r.ParentID != "" {
		t.Fatalf("first root identity = %+v, want fresh trace root", r)
	}
	if len(r.Children) != 1 {
		t.Fatalf("children = %d", len(r.Children))
	}
	c := r.Children[0]
	if c.TraceID != r.TraceID || c.ParentID != r.SpanID {
		t.Errorf("child = trace %s parent %s, want under root %s/%s",
			c.TraceID, c.ParentID, r.TraceID, r.SpanID)
	}
	// A later parentless root shares the trace, parented under the
	// first root: one tracer is one trace.
	if s.TraceID != r.TraceID || s.ParentID != r.SpanID {
		t.Errorf("second root = trace %s parent %s, want to join %s/%s",
			s.TraceID, s.ParentID, r.TraceID, r.SpanID)
	}
}

func TestTracerJoinsPropagatedParent(t *testing.T) {
	remote := NewIDSource(11).NewRoot()
	tr := NewTracerWithIDs(fakeClock(), NewIDSource(12), remote)
	root := tr.Start(nil, "serve/job")
	tr.End(root)
	got := tr.Roots()[0]
	if got.TraceID != remote.TraceID.String() {
		t.Errorf("trace ID = %s, want propagated %s", got.TraceID, remote.TraceID)
	}
	if got.ParentID != remote.SpanID.String() {
		t.Errorf("parent = %s, want remote span %s", got.ParentID, remote.SpanID)
	}
	if got.SpanID == remote.SpanID.String() {
		t.Error("root reused the remote span ID")
	}
}

func TestSpanContextInContext(t *testing.T) {
	if sc := SpanContextFromContext(context.Background()); sc.Valid() {
		t.Fatalf("bare context carries %+v", sc)
	}
	sc := NewIDSource(5).NewRoot()
	ctx := ContextWithSpanContext(context.Background(), sc)
	if got := SpanContextFromContext(ctx); got != sc {
		t.Fatalf("explicit value = %+v, want %+v", got, sc)
	}
	// An invalid value must not overwrite the context.
	if ctx2 := ContextWithSpanContext(ctx, SpanContext{}); SpanContextFromContext(ctx2) != sc {
		t.Error("invalid span context replaced a valid one")
	}
	// A live span takes precedence over the explicit value.
	tr := NewTracerWithIDs(fakeClock(), NewIDSource(6), SpanContext{})
	sp := tr.Start(nil, "serve/job")
	ctx = ContextWithSpan(ctx, sp)
	if got := SpanContextFromContext(ctx); got != sp.Context() {
		t.Fatalf("live span context = %+v, want %+v", got, sp.Context())
	}
}

// mkSpan builds a span with explicit timing for lane-assignment tests.
func mkSpan(name string, startUs, durUs int64, children ...*Span) *Span {
	return &Span{Name: name, StartUs: startUs, DurUs: durUs, Children: children}
}

// laneOf extracts the tid assigned to the named event.
func laneOf(t *testing.T, data []byte, name string) int {
	t.Helper()
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, `"name":"`+name+`"`) {
			var tid int
			i := strings.Index(line, `"tid":`)
			if i < 0 {
				t.Fatalf("event %q has no tid: %s", name, line)
			}
			if _, err := fmt.Sscan(strings.TrimRight(line[i+len(`"tid":`):], ",}"), &tid); err != nil {
				t.Fatalf("parse tid of %q: %v", name, err)
			}
			return tid
		}
	}
	t.Fatalf("event %q not in trace:\n%s", name, data)
	return 0
}

func TestChromeExportLanes(t *testing.T) {
	// Root 0..100; seq1 (0..40) and seq2 (40..60) fit the root's lane
	// back-to-back; par overlaps seq1 and must spill to a fresh lane.
	root := mkSpan("root", 0, 100,
		mkSpan("seq1", 0, 40),
		mkSpan("par", 10, 50),
		mkSpan("seq2", 60, 20),
	)
	data, err := ChromeExport("replica-a", []*Span{root})
	if err != nil {
		t.Fatal(err)
	}
	if laneOf(t, data, "root") != 1 || laneOf(t, data, "seq1") != 1 || laneOf(t, data, "seq2") != 1 {
		t.Errorf("sequential spans must share the root lane:\n%s", data)
	}
	if lane := laneOf(t, data, "par"); lane == 1 {
		t.Errorf("overlapping sibling must spill off lane 1:\n%s", data)
	}
	if !bytes.Contains(data, []byte(`"name":"process_name"`)) ||
		!bytes.Contains(data, []byte(`"name":"replica-a"`)) {
		t.Errorf("missing process_name metadata:\n%s", data)
	}
}

func TestChromeExportDeterministic(t *testing.T) {
	spans := []*Span{mkSpan("root", 0, 10, mkSpan("child", 2, 5))}
	data, err := ChromeExport("A", spans)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"name":"child","ph":"X","ts":2,"dur":5,"pid":1`)) {
		t.Errorf("child span not on pid 1:\n%s", data)
	}
	again, err := ChromeExport("A", spans)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("ChromeExport not deterministic for identical input")
	}
}
