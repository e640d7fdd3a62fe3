// Package cdcs is the public API of the constraint-driven communication
// synthesis library — a Go implementation of Pinto, Carloni and
// Sangiovanni-Vincentelli's DAC 2002 algorithm.
//
// The workflow has three steps:
//
//  1. describe the communication requirements as a constraint graph —
//     ports with positions, unidirectional channels with bandwidths;
//  2. describe the communication library — link types (bandwidth, span,
//     cost) and node types (repeaters, multiplexers, de-multiplexers);
//  3. call Synthesize to obtain the provably minimum-cost
//     implementation graph plus a report of the algorithm's decisions.
//
// A minimal program:
//
//	cg := cdcs.NewConstraintGraph(cdcs.Euclidean)
//	src := cg.MustAddPort(cdcs.Port{Name: "cpu.out", Position: cdcs.Pt(0, 0)})
//	dst := cg.MustAddPort(cdcs.Port{Name: "mem.in", Position: cdcs.Pt(80, 5)})
//	cg.MustAddChannel(cdcs.Channel{Name: "bus", From: src, To: dst, Bandwidth: 8})
//
//	lib := &cdcs.Library{
//		Links: []cdcs.Link{
//			{Name: "radio", Bandwidth: 10, MaxSpan: math.Inf(1), CostPerLength: 2},
//			{Name: "fiber", Bandwidth: 1000, MaxSpan: math.Inf(1), CostPerLength: 4},
//		},
//		Nodes: []cdcs.Node{
//			{Name: "mux", Kind: cdcs.Mux}, {Name: "demux", Kind: cdcs.Demux},
//		},
//	}
//
//	ig, report, err := cdcs.Synthesize(cg, lib, cdcs.Options{})
//
// Options carries the only choices a caller makes: the covering solver
// (exact or greedy), the pricing worker count, a deadline, and where
// traces, metrics and progress events go. Everything else is the
// paper's one flow, fixed. The cdcs CLI, the cdcsd daemon and the
// perfbench harness all synthesize through SynthesizeContext.
//
// The sub-systems (candidate enumeration, placement, covering solver,
// flow simulation, …) live in internal packages; this facade re-exports
// the types and entry points a downstream application needs. The
// examples/ directory demonstrates every feature end to end.
package cdcs

import (
	"context"
	"runtime"
	"time"

	"repro/internal/flowsim"
	"repro/internal/geom"
	"repro/internal/impl"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/ucp"
	"repro/internal/viz"
)

// Geometry.
type (
	// Point is a position in the plane.
	Point = geom.Point
	// Norm measures distances (Euclidean, Manhattan, Chebyshev).
	Norm = geom.Norm
)

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Built-in norms.
var (
	Euclidean = geom.Euclidean
	Manhattan = geom.Manhattan
	Chebyshev = geom.Chebyshev
)

// Constraint-graph model (the paper's Definition 2.1).
type (
	// ConstraintGraph is the communication requirement: ports + channels.
	ConstraintGraph = model.ConstraintGraph
	// Port is a positioned module port.
	Port = model.Port
	// Channel is a point-to-point unidirectional requirement.
	Channel = model.Channel
	// PortID and ChannelID identify ports and channels.
	PortID    = model.PortID
	ChannelID = model.ChannelID
)

// NewConstraintGraph returns an empty constraint graph under the given
// norm (nil defaults to Euclidean).
func NewConstraintGraph(norm Norm) *ConstraintGraph {
	return model.NewConstraintGraph(norm)
}

// DecodeConstraintGraph parses the JSON form produced by
// ConstraintGraph.MarshalJSON.
func DecodeConstraintGraph(data []byte) (*ConstraintGraph, error) {
	return model.DecodeConstraintGraph(data)
}

// Communication library (the paper's Definition 2.2).
type (
	// Library is the set of available links and nodes.
	Library = library.Library
	// Link is a communication link type.
	Link = library.Link
	// Node is a communication node type.
	Node = library.Node
	// NodeKind distinguishes repeaters, muxes and demuxes.
	NodeKind = library.NodeKind
)

// Node kinds.
const (
	Repeater = library.Repeater
	Mux      = library.Mux
	Demux    = library.Demux
)

// DecodeLibrary parses the JSON form produced by Library.MarshalJSON.
func DecodeLibrary(data []byte) (*Library, error) { return library.Decode(data) }

// Results.
type (
	// ImplementationGraph is the synthesized architecture
	// (Definitions 2.3–2.5).
	ImplementationGraph = impl.Graph
	// Report summarizes a synthesis run: costs, selected candidates,
	// enumeration statistics and solver counters.
	Report = synth.Report
	// Candidate is one local solution considered by the covering step.
	Candidate = synth.Candidate
	// Degradation is the Report section recording what a deadline cut
	// short; its zero value means the run completed in full.
	Degradation = synth.Degradation
	// PricingPanicError is the typed error a panic inside a pricing
	// worker is converted to; match with errors.As.
	PricingPanicError = synth.PricingPanicError
)

// Typed sentinel errors, distinguishable with errors.Is.
var (
	// ErrCanceled: the context was already dead before synthesis
	// started (mid-run deadlines degrade instead of erroring).
	ErrCanceled = synth.ErrCanceled
	// ErrInfeasible: the covering instance has an uncoverable row.
	ErrInfeasible = ucp.ErrInfeasible
)

// Options configures Synthesize. The zero value runs the paper's one
// flow: every merging the pruning lemmas let through is enumerated
// (under the max-index reference policy, merging's zero value) and
// priced, the dominated local solutions are discarded, and the covering
// is solved exactly, with candidate pricing parallelized across
// runtime.GOMAXPROCS(0) workers. The cost model is not an option: a
// merged trunk is one chain sized for the sum of its channels'
// bandwidths, and duplication is parallel links with no switch cost
// (Definition 2.7). A deadline (Timeout, or one on the context) is the
// one way to bound a run.
type Options struct {
	// Greedy switches the covering step to the greedy heuristic
	// (faster, possibly sub-optimal).
	Greedy bool
	// Workers bounds the candidate-pricing worker pool. Zero (or a
	// negative value) means runtime.GOMAXPROCS(0), the CPUs the process
	// may run on at once; 1 forces the serial path; a value above
	// runtime.GOMAXPROCS(0) is clamped to it, since each worker keeps
	// its own goroutine and placement scratch and more than can run at
	// once only cost memory. Any value produces an identical report and
	// architecture — only wall-clock time changes.
	Workers int
	// Timeout bounds the run's wall clock with anytime semantics: when
	// it expires mid-run, Synthesize still returns a feasible verified
	// architecture — possibly sub-optimal, at worst all point-to-point
	// — with Report.Degradation describing what was cut short and
	// bounding the optimality gap. Zero means no deadline.
	Timeout time.Duration
	// Observer, when non-nil, collects the run's observability data:
	// a span trace of every synthesis phase, a registry of algorithm
	// counters (prune hits, branch-and-bound nodes, pricings, …), and
	// runtime/pprof phase labels. Build one with
	// NewObserver, run Synthesize, then export with the observer's
	// Tracer()/Metrics() accessors. Nil (the default) disables
	// observability at negligible cost. See docs/OBSERVABILITY.md.
	Observer *Observer
	// Progress, when non-nil, receives the run's live progress events
	// — phase starts/ends, per-arity enumeration levels, and every
	// branch-and-bound incumbent improvement with its cost, lower
	// bound and gap — while the run is still in flight, so a long
	// anytime solve is observable before its deadline fires. The
	// callback runs on a dedicated goroutine (never on the solver's
	// hot path) that follows the run's event stream by sequence
	// number, starting after the stream's last event before the run,
	// so a reused Observer's earlier runs are not replayed. A slow
	// callback lags but cannot stall or deadlock the run, and it
	// misses events only once it falls more than the stream's
	// 1,024-event replay ring (obs.DefaultEventBuffer) behind, which
	// shows as a gap in Seq. Every event published during the run
	// is delivered before Synthesize returns. See docs/OBSERVABILITY.md
	// for the event schema.
	Progress func(Event)
}

// Observability.
type (
	// Observer collects spans, metrics and pprof labels for synthesis
	// runs; one Observer may serve many runs (counters accumulate,
	// traces grow a root span per run).
	Observer = obs.Sink
	// ObserverConfig selects an Observer's collectors.
	ObserverConfig = obs.Config
	// TraceSpan is one timed region of an exported trace.
	TraceSpan = obs.Span
	// MetricsSnapshot is a deterministic point-in-time copy of an
	// Observer's metrics.
	MetricsSnapshot = obs.Snapshot
	// Event is one progress notification from a running synthesis —
	// the value Options.Progress receives; see the obs.Event* type
	// constants for the schema.
	Event = obs.Event
)

// NewObserver builds an Observer with the collectors cfg enables.
func NewObserver(cfg ObserverConfig) *Observer { return obs.New(cfg) }

// Synthesize runs the full constraint-driven synthesis flow and returns
// the verified minimum-cost implementation graph and the run report.
func Synthesize(cg *ConstraintGraph, lib *Library, opt Options) (*ImplementationGraph, *Report, error) {
	return SynthesizeContext(context.Background(), cg, lib, opt)
}

// SynthesizeContext is Synthesize under cooperative cancellation: a
// context that is already dead on entry returns ErrCanceled, and a
// deadline hitting mid-run degrades the result (see Options.Timeout)
// instead of erroring, so a service calling this under load never
// hangs, panics, or comes back empty-handed on a feasible instance.
func SynthesizeContext(ctx context.Context, cg *ConstraintGraph, lib *Library, opt Options) (*ImplementationGraph, *Report, error) {
	o := synth.Options{
		Workers: min(opt.Workers, runtime.GOMAXPROCS(0)),
		Timeout: opt.Timeout,
	}
	if opt.Greedy {
		o.Solver = synth.GreedySolver
	}
	sink := opt.Observer
	if opt.Progress != nil {
		// Progress rides the sink's event stream: reuse the caller's
		// Observer (retrofitting a stream if it lacks one) or build a
		// private events-only sink. The drain goroutine follows the
		// stream by sequence number, off the solver's hot path, from the
		// stream's last event before this run: a reused Observer's
		// earlier runs are not replayed. The deferred stop makes it read
		// once more and waits, so every event published during the run
		// is delivered before this function returns.
		if sink == nil {
			sink = obs.New(obs.Config{Events: true})
		} else {
			sink.InitEvents()
		}
		events := sink.Events()
		seq := events.Seq()
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for last := false; ; {
				evs, next, closed := events.Since(seq)
				for _, ev := range evs {
					opt.Progress(ev)
					seq = ev.Seq
				}
				if closed || last {
					return
				}
				select {
				case <-next:
				case <-stop:
					last = true
				}
			}
		}()
		defer func() {
			close(stop)
			<-done
		}()
	}
	if sink != nil {
		ctx = obs.NewContext(ctx, sink)
	}
	return synth.SynthesizeContext(ctx, cg, lib, o)
}

// Verify checks an implementation graph against every Definition 2.4
// constraint of its constraint graph (Synthesize already does this; the
// function is exposed for architectures built or modified by hand).
func Verify(ig *ImplementationGraph) error {
	return ig.Verify()
}

// SimulationResult is a completed flow simulation.
type SimulationResult = flowsim.Result

// Simulate replays the architecture under concurrent traffic: every
// channel injects its required bandwidth and the result reports the
// sustained per-channel throughput and per-link utilization.
func Simulate(ig *ImplementationGraph) (*SimulationResult, error) {
	return flowsim.Simulate(ig, flowsim.Config{})
}

// RenderSVG draws the implementation graph to scale as a standalone SVG
// document (dashed/solid strokes per link type, squares for
// communication vertices).
func RenderSVG(ig *ImplementationGraph) string {
	return viz.Implementation(ig, viz.Options{ShowLabels: true})
}

// RenderConstraintSVG draws the constraint graph to scale.
func RenderConstraintSVG(cg *ConstraintGraph) string {
	return viz.ConstraintGraph(cg, viz.Options{ShowLabels: true})
}
