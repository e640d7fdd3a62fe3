// Package obs is the synthesis observability layer: a zero-dependency
// span tracer, a metrics registry, and runtime/pprof label propagation,
// carried through the flow on a context.Context.
//
// The design principle is "pay only when watching". A run without an
// installed Sink costs one context lookup per *phase* (not per inner
// loop): the hot loops keep accumulating their counters in plain struct
// fields exactly as before, and the instrumented packages publish those
// totals to the registry once per phase. A nil *Sink — and nil *Tracer,
// *Registry, *Counter, … — is a valid no-op receiver everywhere, so
// call sites never branch on "is observability on".
//
// Span naming follows "<package>/<phase>" (e.g. "merging/enumerate",
// "ucp/solve"); the catalog of spans and metrics lives in
// docs/OBSERVABILITY.md.
//
// Determinism: the algorithm's counters (sets tested, prune hits, B&B
// nodes, …) are pure functions of the instance, so two identical runs
// snapshot identical counter values; with a caller-injected clock
// (Config.Now) the exported trace and metric JSON are byte-identical
// run to run, which the CI benchmark gate and the determinism tests
// rely on. Wall-clock fields (span durations, duration histograms) are
// the only nondeterministic values and are excluded from exact-match
// comparisons by cmd/bench-diff.
package obs

import (
	"context"
	"time"
)

// Config selects which collectors a Sink carries.
type Config struct {
	// Tracing enables the span tracer.
	Tracing bool
	// Metrics enables the counter/gauge/histogram registry.
	Metrics bool
	// Registry, when non-nil, is used as the metrics registry instead
	// of creating a fresh one (implies Metrics). The serving daemon
	// shares one registry across every job so /metrics is a single
	// accumulated scrape target.
	Registry *Registry
	// Tracer, when non-nil, is used as the span tracer instead of
	// creating a fresh one (implies Tracing). The serving daemon hands
	// each job's pre-created ID-carrying tracer to the run's sink so
	// the synth phase tree lands in the job's distributed trace.
	Tracer *Tracer
	// Events enables the progress event stream (phase boundaries,
	// enumeration levels, incumbent improvements) with a bounded
	// drop-oldest replay ring of DefaultEventBuffer events.
	Events bool
	// EventStream, when non-nil, is used as the event stream instead
	// of creating a fresh one (implies Events). The serving daemon
	// hands each job's pre-created stream to the run's sink so SSE
	// subscribers attached before the run started miss nothing.
	EventStream *Events
	// PprofLabels propagates a "phase" runtime/pprof label with every
	// span, so CPU profiles taken during a run attribute samples to
	// synthesis phases. Meaningful only while profiling; cheap always.
	PprofLabels bool
	// Now overrides the tracer's clock. Nil means time.Now. Tests
	// inject a deterministic clock to get byte-identical trace JSON.
	Now func() time.Time
}

// Sink is one run's observability collector. The zero value and the
// nil pointer are both inert; build a live one with New.
type Sink struct {
	tracer      *Tracer
	metrics     *Registry
	events      *Events
	pprofLabels bool
	now         func() time.Time
}

// New returns a Sink with the collectors cfg enables. A Config with
// neither Tracing, Metrics nor Events yields a Sink that only
// propagates pprof labels (or nothing at all).
func New(cfg Config) *Sink {
	s := &Sink{pprofLabels: cfg.PprofLabels, now: cfg.Now}
	switch {
	case cfg.Tracer != nil:
		s.tracer = cfg.Tracer
	case cfg.Tracing:
		s.tracer = NewTracer(cfg.Now)
	}
	switch {
	case cfg.Registry != nil:
		s.metrics = cfg.Registry
	case cfg.Metrics:
		s.metrics = NewRegistry()
	}
	switch {
	case cfg.EventStream != nil:
		s.events = cfg.EventStream
	case cfg.Events:
		s.events = NewEvents(DefaultEventBuffer, cfg.Now)
	}
	return s
}

// Clock returns the sink's clock (Config.Now, or time.Now). Every
// wall-clock observation the instrumented code records — span stamps
// and duration histograms alike — goes through it, so injecting a
// deterministic clock makes the complete trace and metrics exports
// byte-identical across identical serial runs. A caller-injected
// clock must be safe for concurrent use if the run prices in
// parallel; time.Now trivially is.
func (s *Sink) Clock() func() time.Time {
	if s == nil || s.now == nil {
		return time.Now
	}
	return s.now
}

// Tracer returns the sink's span tracer, nil when tracing is disabled
// (a nil *Tracer is itself a no-op receiver).
func (s *Sink) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// Metrics returns the sink's registry, nil when metrics are disabled
// (a nil *Registry hands out nil instruments, which are no-ops).
func (s *Sink) Metrics() *Registry {
	if s == nil {
		return nil
	}
	return s.metrics
}

// Events returns the sink's progress event stream, nil when events are
// disabled (a nil *Events is itself a no-op receiver).
func (s *Sink) Events() *Events {
	if s == nil {
		return nil
	}
	return s.events
}

// InitEvents retrofits an event stream onto a sink built without one
// (the facade calls it when Options.Progress is set on a caller-built
// Observer); a stream already present is kept. Call before the run —
// it is not synchronized against concurrent publishers. No-op on nil.
func (s *Sink) InitEvents() {
	if s == nil || s.events != nil {
		return
	}
	s.events = NewEvents(DefaultEventBuffer, s.now)
}

// ctxKey* are private context key types so no other package can
// collide with the sink/span values.
type ctxKeySink struct{}
type ctxKeySpan struct{}

// NewContext returns ctx carrying the sink; the instrumented packages
// retrieve it with FromContext. A nil sink returns ctx unchanged.
func NewContext(ctx context.Context, s *Sink) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeySink{}, s)
}

// FromContext returns the sink carried by ctx, or nil (a valid no-op
// receiver) when none is installed.
func FromContext(ctx context.Context) *Sink {
	s, _ := ctx.Value(ctxKeySink{}).(*Sink)
	return s
}

// EventsFromContext is shorthand for FromContext(ctx).Events(): the
// stream handle a phase fetches once and then publishes to freely (nil
// — a no-op publisher — when events are disabled).
func EventsFromContext(ctx context.Context) *Events {
	return FromContext(ctx).Events()
}
