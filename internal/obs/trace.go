package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are strings so
// the exported JSON is trivially deterministic; use the typed
// constructors for non-string values.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr {
	return Attr{Key: key, Value: strconv.Itoa(value)}
}

// Float builds a float attribute, formatted with the shortest
// round-trip representation (deterministic for a given value).
func Float(key string, value float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(value, 'g', -1, 64)}
}

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	return Attr{Key: key, Value: strconv.FormatBool(value)}
}

// Span is one timed region of a run. StartUs/DurUs are microseconds
// relative to the tracer's first span. Children appear in start order;
// when spans are started from a single goroutine (as the synthesis
// phases are) that order is deterministic.
type Span struct {
	Name     string  `json:"name"`
	StartUs  int64   `json:"startUs"`
	DurUs    int64   `json:"durUs"`
	TraceID  string  `json:"traceId,omitempty"`
	SpanID   string  `json:"spanId,omitempty"`
	ParentID string  `json:"parentSpanId,omitempty"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Span `json:"children,omitempty"`

	start time.Time
	sc    SpanContext
}

// Context returns the span's identity (zero when the tracer has no ID
// source). Safe on nil.
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return sp.sc
}

// Tracer records a forest of spans. All methods are safe for
// concurrent use; every structural mutation happens under one mutex,
// so workers may open spans under a shared parent (their completion
// order, not their content, is then scheduling-dependent).
type Tracer struct {
	mu     sync.Mutex
	now    func() time.Time
	epoch  time.Time
	roots  []*Span
	ids    *IDSource
	parent SpanContext
}

// NewTracer returns an empty tracer using the given clock (nil means
// time.Now). Spans carry no W3C identifiers; use NewTracerWithIDs for
// distributed traces.
func NewTracer(now func() time.Time) *Tracer {
	if now == nil {
		now = time.Now
	}
	return &Tracer{now: now}
}

// NewTracerWithIDs returns a tracer whose spans carry W3C trace/span
// identifiers drawn from ids. When parent is valid, root spans join
// parent's trace and parent under parent's span (the propagated
// remote context); otherwise the first root starts a fresh trace that
// later roots share.
func NewTracerWithIDs(now func() time.Time, ids *IDSource, parent SpanContext) *Tracer {
	t := NewTracer(now)
	if ids == nil {
		ids = NewIDSource(0)
	}
	t.ids = ids
	t.parent = parent
	return t
}

// start opens a span under parent (nil parent = new root).
func (t *Tracer) start(parent *Span, name string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.now()
	if t.epoch.IsZero() {
		t.epoch = ts
	}
	sp := &Span{
		Name:    name,
		StartUs: ts.Sub(t.epoch).Microseconds(),
		Attrs:   append([]Attr(nil), attrs...),
		start:   ts,
	}
	if t.ids != nil {
		sp.sc.SpanID = t.ids.SpanID()
		switch {
		case parent != nil && parent.sc.Valid():
			sp.sc.TraceID = parent.sc.TraceID
			sp.ParentID = parent.sc.SpanID.String()
		case t.parent.Valid():
			sp.sc.TraceID = t.parent.TraceID
			sp.ParentID = t.parent.SpanID.String()
		default:
			// First root of a fresh trace; later parentless roots
			// share it so one tracer is always one trace.
			t.parent = SpanContext{TraceID: t.ids.TraceID(), SpanID: sp.sc.SpanID}
			sp.sc.TraceID = t.parent.TraceID
		}
		sp.TraceID = sp.sc.TraceID.String()
		sp.SpanID = sp.sc.SpanID.String()
	}
	if parent == nil {
		t.roots = append(t.roots, sp)
	} else {
		parent.Children = append(parent.Children, sp)
	}
	return sp
}

// Start opens a span under parent (nil = new root). Unlike Trace, the
// span's lifetime is not tied to a context — the serving daemon opens
// queue-wait and request spans in one function and closes them in
// another. Safe on a nil tracer (returns nil, which End ignores).
func (t *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	return t.start(parent, name, attrs)
}

// End closes a span opened with Start, appending any final attributes.
func (t *Tracer) End(sp *Span, attrs ...Attr) {
	t.end(sp, attrs)
}

// end closes the span, appending any final attributes (the idiom for
// attaching counters known only when the phase finishes).
func (t *Tracer) end(sp *Span, attrs []Attr) {
	if t == nil || sp == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp.DurUs = t.now().Sub(sp.start).Microseconds()
	sp.Attrs = append(sp.Attrs, attrs...)
}

// Roots returns a deep copy of the completed span forest.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.roots))
	for i, sp := range t.roots {
		out[i] = copySpan(sp)
	}
	return out
}

func copySpan(sp *Span) *Span {
	c := &Span{
		Name:     sp.Name,
		StartUs:  sp.StartUs,
		DurUs:    sp.DurUs,
		TraceID:  sp.TraceID,
		SpanID:   sp.SpanID,
		ParentID: sp.ParentID,
		Attrs:    append([]Attr(nil), sp.Attrs...),
		sc:       sp.sc,
	}
	for _, child := range sp.Children {
		c.Children = append(c.Children, copySpan(child))
	}
	return c
}

// ChromeTrace exports the span forest in the Chrome trace_event JSON
// array format — loadable by chrome://tracing and Perfetto. Every span
// becomes one complete ("ph":"X") event; attributes become args. Spans
// that overlap in time (parallel pricing workers under one parent) are
// spread across lanes so each gets its own tid row.
func (t *Tracer) ChromeTrace() ([]byte, error) {
	return ChromeExport("", t.Roots())
}

// ChromeExport renders a span forest as a Chrome trace_event JSON
// array. Every event carries pid 1, preceded by a process_name
// metadata record when name is not empty. Spans are packed onto tid
// lanes greedily — a span shares its parent's lane when it fits after
// the previous occupant, and overlapping siblings spill onto fresh
// lanes — so parallel workers render as parallel rows. The assignment
// is a pure function of the span forest, keeping the bytes
// deterministic.
func ChromeExport(name string, spans []*Span) ([]byte, error) {
	var events []chromeEvent
	if name != "" {
		events = append(events, chromeEvent{
			Name: "process_name", Phase: "M", PID: 1,
			Args: map[string]string{"name": name},
		})
	}
	events = append(events, chromeEvents(spans)...)
	// Marshal each event with sorted args so the output is stable (the
	// encoding/json map marshaling sorts keys, but we keep the array
	// assembly explicit and deterministic regardless).
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			return nil, fmt.Errorf("obs: encode trace event %q: %w", ev.Name, err)
		}
		buf.WriteString("  ")
		buf.Write(data)
		if i < len(events)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes(), nil
}

// chromeEvents flattens one forest into complete events with lane tids.
func chromeEvents(roots []*Span) []chromeEvent {
	var events []chromeEvent
	nextLane := 1
	// lane bookkeeping per sibling group: each entry is a lane number
	// and the end time of the last sibling placed on it.
	type slot struct {
		lane    int
		lastEnd int64
	}
	var walk func(sp *Span, lane int)
	walk = func(sp *Span, lane int) {
		args := make(map[string]string, len(sp.Attrs))
		for _, a := range sp.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: sp.Name, Phase: "X",
			TsUs: sp.StartUs, DurUs: sp.DurUs,
			PID: 1, TID: lane, Args: args,
		})
		// Children nest inside sp, so sp's own lane is free for them;
		// siblings that overlap the previous occupant spill onto fresh
		// lanes, first-fit in start order.
		slots := []slot{{lane: lane, lastEnd: sp.StartUs}}
		for _, child := range sp.Children {
			placed := false
			for si := range slots {
				if slots[si].lastEnd <= child.StartUs {
					slots[si].lastEnd = child.StartUs + child.DurUs
					walk(child, slots[si].lane)
					placed = true
					break
				}
			}
			if !placed {
				nextLane++
				slots = append(slots, slot{lane: nextLane, lastEnd: child.StartUs + child.DurUs})
				walk(child, nextLane)
			}
		}
	}
	rootSlots := []slot{}
	for _, root := range roots {
		placed := false
		for si := range rootSlots {
			if rootSlots[si].lastEnd <= root.StartUs {
				rootSlots[si].lastEnd = root.StartUs + root.DurUs
				walk(root, rootSlots[si].lane)
				placed = true
				break
			}
		}
		if !placed {
			lane := 1
			if len(rootSlots) > 0 {
				nextLane++
				lane = nextLane
			}
			rootSlots = append(rootSlots, slot{lane: lane, lastEnd: root.StartUs + root.DurUs})
			walk(root, lane)
		}
	}
	return events
}

// chromeEvent is one trace_event entry. encoding/json marshals the
// Args map with sorted keys, keeping the bytes deterministic.
type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TsUs  int64             `json:"ts"`
	DurUs int64             `json:"dur"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// Attr returns the value of the span attribute with the given key and
// whether it is present (last write wins, matching end-attr appends).
func (sp *Span) Attr(key string) (string, bool) {
	for i := len(sp.Attrs) - 1; i >= 0; i-- {
		if sp.Attrs[i].Key == key {
			return sp.Attrs[i].Value, true
		}
	}
	return "", false
}

// Trace opens a span named name under the span currently carried by
// ctx (or as a root), returning a derived context carrying the new
// span and the function that closes it. When ctx carries no sink — or
// the sink has tracing disabled — both returned values are cheap
// no-ops, so call sites never branch.
//
// With Config.PprofLabels set, the region additionally runs under a
// runtime/pprof label phase=<name>; the end function restores the
// caller's labels. Worker goroutines that inherit the derived context
// apply the same labels with ApplyGoroutineLabels.
func Trace(ctx context.Context, name string, attrs ...Attr) (context.Context, func(...Attr)) {
	s := FromContext(ctx)
	if s == nil || (s.tracer == nil && !s.pprofLabels) {
		return ctx, noopEnd
	}
	var sp *Span
	if s.tracer != nil {
		parent, _ := ctx.Value(ctxKeySpan{}).(*Span)
		sp = s.tracer.start(parent, name, attrs)
		ctx = context.WithValue(ctx, ctxKeySpan{}, sp)
	}
	restore := func() {}
	if s.pprofLabels {
		ctx, restore = pushPprofLabel(ctx, name)
	}
	tracer := s.tracer
	return ctx, func(endAttrs ...Attr) {
		tracer.end(sp, endAttrs)
		restore()
	}
}

// noopEnd is the shared do-nothing span closer, so the disabled path
// allocates no closure.
func noopEnd(...Attr) {}
