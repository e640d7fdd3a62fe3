// Package synth is the core of the reproduction: the end-to-end
// constraint-driven communication synthesis flow of the paper.
//
// Given a communication constraint graph and a communication library it
// runs the two-step algorithm of Section 3:
//
//  1. Local solution generation — the optimum point-to-point
//     implementation of every constraint arc (p2p), plus all candidate
//     k-way arc mergings that survive the Lemma 3.1 / Lemma 3.2 /
//     Theorem 3.1 / Theorem 3.2 prunes (merging), each priced by the
//     nonlinear placement optimization (place);
//  2. Global solution derivation — a weighted Unate Covering Problem
//     over the candidate set (ucp), whose optimum selects the subset of
//     candidates forming the minimum-cost implementation graph.
//
// The selected candidates are then materialized into an implementation
// graph (impl) that satisfies every constraint of Definition 2.4.
package synth

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/impl"
	"repro/internal/library"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/num"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/place"
	"repro/internal/ucp"
)

// SolverKind selects the covering solver.
type SolverKind int

const (
	// ExactSolver is the branch-and-bound UCP solver (default).
	ExactSolver SolverKind = iota
	// GreedySolver is the weight-per-row heuristic, for comparison runs.
	GreedySolver
)

// Options configures the full flow.
type Options struct {
	// Merging configures candidate enumeration.
	Merging merging.Options
	// Solver selects the covering solver.
	Solver SolverKind
	// Workers bounds the candidate-pricing worker pool (Step 1c, the
	// dominant cost of the flow). Zero or negative means
	// runtime.GOMAXPROCS(0), the CPUs the process may run on at once;
	// 1 prices serially on the calling goroutine. The results are
	// collected in enumeration order and every pricing sub-problem is a
	// pure function of its candidate set, so the report — candidate
	// order, costs, counters — and the synthesized graph are identical
	// for every worker count.
	Workers int
	// Timeout bounds the whole run's wall clock. When it expires the
	// flow does not error: each remaining phase is cut short
	// cooperatively and the run still returns a feasible, verified
	// architecture with Report.Degradation describing what was cut
	// (anytime semantics). Zero means no deadline. A deadline already
	// present on the caller's context behaves identically; the
	// effective deadline is whichever is earlier.
	Timeout time.Duration
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Candidate describes one local solution considered by the covering
// step.
type Candidate struct {
	// Channels are the constraint arcs this candidate implements.
	Channels []model.ChannelID
	// Kind is "p2p" for single-arc candidates, "merge" for k-way
	// mergings.
	Kind string
	// Cost is the candidate's weight in the covering instance.
	Cost float64
	// Plan is set for p2p candidates.
	Plan *p2p.Plan
	// Merge is set for merging candidates.
	Merge *place.Candidate
	// Selected marks candidates chosen by the covering optimum.
	Selected bool
}

// Report summarizes a synthesis run.
type Report struct {
	// Cost is the optimal implementation-graph cost found.
	Cost float64
	// P2PCost is the optimum point-to-point implementation graph cost
	// (Definition 2.6), the paper's implicit baseline.
	P2PCost float64
	// Candidates lists every priced local solution.
	Candidates []Candidate
	// Enumeration carries the per-k candidate sets and Theorem 3.1
	// eliminations from the merging step.
	Enumeration *merging.Result
	// PricedMergings counts mergings that survived pricing;
	// InfeasibleMergings counts those the placement step rejected;
	// DominatedMergings counts those dropped because they cost at least
	// their channels' point-to-point sum, whether placed and then
	// dropped or skipped unplaced. SkippedByBound counts the dominated
	// mergings skipped unplaced because a certified lower bound on
	// their placement (place.OptimizeBelow) reached that sum before the
	// polish and the build; it is part of DominatedMergings.
	PricedMergings     int
	InfeasibleMergings int
	DominatedMergings  int
	SkippedByBound     int
	// UCPStats carries covering-solver counters.
	UCPStats ucp.Stats
	// SolverOptimal is true when the covering solver proved optimality.
	SolverOptimal bool
	// Workers is the pricing worker-pool size the run actually used.
	Workers int
	// Degradation records what (if anything) a deadline cut short;
	// its zero value means the run completed in full.
	Degradation Degradation
	// Timings breaks Elapsed into the flow's phases.
	Timings Timings
	// Elapsed is the wall-clock synthesis time.
	Elapsed time.Duration
}

// Timings are the per-phase wall-clock durations of one synthesis run.
type Timings struct {
	// Enumerate covers local solution generation Steps 1a–1b: optimum
	// point-to-point planning plus candidate-merging enumeration.
	Enumerate time.Duration
	// Price covers Step 1c: placement-pricing every surviving merging.
	Price time.Duration
	// Solve covers Step 2: the unate covering solver.
	Solve time.Duration
	// Materialize covers building and verifying the implementation
	// graph from the selected candidates.
	Materialize time.Duration
}

// ResultOptimal reports whether the returned architecture is provably
// optimal: the covering solver proved optimality AND no upstream phase
// (enumeration, pricing) was cut short — a truncated candidate set can
// hide cheaper mergings even when its covering solve is exact.
func (r *Report) ResultOptimal() bool {
	return r.SolverOptimal && !r.Degradation.Degraded()
}

// SavingsPercent returns how much cheaper the synthesized architecture
// is than the optimum point-to-point implementation graph, in percent.
func (r *Report) SavingsPercent() float64 {
	if num.IsZero(r.P2PCost) {
		return 0
	}
	return 100 * (1 - r.Cost/r.P2PCost)
}

// SelectedCandidates returns the candidates chosen by the optimum.
func (r *Report) SelectedCandidates() []Candidate {
	var out []Candidate
	for _, c := range r.Candidates {
		if c.Selected {
			out = append(out, c)
		}
	}
	return out
}

// Synthesize runs the full flow and returns the materialized optimal
// implementation graph together with the run report.
func Synthesize(cg *model.ConstraintGraph, lib *library.Library, opt Options) (*impl.Graph, *Report, error) {
	return SynthesizeContext(context.Background(), cg, lib, opt)
}

// SynthesizeContext is Synthesize under cooperative cancellation with
// anytime semantics. A context that is already dead on entry returns
// ErrCanceled; after that, a deadline (from the context or from
// Options.Timeout, whichever is earlier) never produces an error or a
// partial failure — each phase is cut short at its next checkpoint, the
// flow degrades to the best architecture constructible from the work
// completed so far (at worst the all-point-to-point implementation,
// which is always feasible), and Report.Degradation records what was
// cut together with an optimality-gap bound.
func SynthesizeContext(ctx context.Context, cg *model.ConstraintGraph, lib *library.Library, opt Options) (_ *impl.Graph, _ *Report, err error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	if err := cg.Validate(); err != nil {
		return nil, nil, err
	}
	if err := lib.Validate(); err != nil {
		return nil, nil, err
	}
	report := &Report{}

	// Progress events stream to live watchers (CLI -progress, cdcsd SSE
	// subscribers) while the run is in flight. The handle is fetched
	// once per run; without a stream it is nil and every publish below
	// is a nil-receiver no-op.
	events := obs.EventsFromContext(ctx)
	events.Publish(obs.Event{
		Type:     obs.EventRunStart,
		Channels: cg.NumChannels(),
		Workers:  opt.workers(),
	})
	defer func() {
		if err != nil {
			events.Publish(obs.Event{Type: obs.EventRunError, Err: err.Error()})
			return
		}
		events.Publish(obs.Event{
			Type:     obs.EventRunEnd,
			Cost:     report.Cost,
			Optimal:  report.ResultOptimal(),
			Degraded: report.Degradation.Degraded(),
		})
	}()

	// The run span roots the trace; every phase span (and the spans the
	// merging/ucp layers open through the derived contexts) nests under
	// it. Without a sink on ctx this — like every obs call below — is a
	// no-op costing one context lookup per phase.
	ctx, endRun := obs.Trace(ctx, "synth/run",
		obs.Int("channels", cg.NumChannels()), obs.Int("workers", opt.workers()))
	defer func() {
		endRun(obs.Float("cost", report.Cost),
			obs.Float("p2pCost", report.P2PCost),
			obs.Bool("degraded", report.Degradation.Degraded()))
	}()

	report.Workers = opt.workers()

	// --- Step 1a: optimum point-to-point plans. ---
	// Not interruptible by design: the p2p plans are what every
	// degraded outcome falls back to, and they cost O(n·|L|).
	phase := time.Now()
	n := cg.NumChannels()
	events.Publish(obs.Event{Type: obs.EventPhaseStart, Phase: "plan"})
	_, endPlan := obs.Trace(ctx, "p2p/plan", obs.Int("channels", n))
	p2pPlans := make([]p2p.Plan, n)
	for i := 0; i < n; i++ {
		ch := model.ChannelID(i)
		plan, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
		if err != nil {
			endPlan()
			return nil, nil, fmt.Errorf("synth: channel %q: %w", cg.Channel(ch).Name, err)
		}
		p2pPlans[i] = plan
		report.P2PCost += plan.Cost
	}
	endPlan(obs.Float("p2pCost", report.P2PCost))
	events.Publish(obs.Event{Type: obs.EventPhaseEnd, Phase: "plan", Channels: n})

	// --- Step 1b: candidate mergings. ---
	// merging.EnumerateContext opens its own "merging/enumerate" span
	// and publishes the per-lemma prune counters plus one EventEnumLevel
	// per completed arity.
	events.Publish(obs.Event{Type: obs.EventPhaseStart, Phase: "enumerate"})
	enum, err := merging.EnumerateContext(ctx, cg, lib, opt.Merging)
	if err != nil {
		return nil, nil, err
	}
	report.Enumeration = enum
	report.Degradation.EnumerationInterrupted = enum.Interrupted
	report.Timings.Enumerate = time.Since(phase)
	events.Publish(obs.Event{
		Type: obs.EventPhaseEnd, Phase: "enumerate",
		Candidates: enum.TotalCandidates(), SetsTested: enum.SetsTested,
	})

	// --- Step 1c: price every candidate. ---
	phase = time.Now()
	events.Publish(obs.Event{Type: obs.EventPhaseStart, Phase: "price", Candidates: enum.TotalCandidates()})
	for i := 0; i < n; i++ {
		plan := p2pPlans[i]
		report.Candidates = append(report.Candidates, Candidate{
			Channels: []model.ChannelID{model.ChannelID(i)},
			Kind:     "p2p",
			Cost:     plan.Cost,
			Plan:     &plan,
		})
	}
	priceCtx, endPrice := obs.Trace(ctx, "synth/price",
		obs.Int("mergings", enum.TotalCandidates()))
	err = priceCandidates(priceCtx, cg, lib, enum, p2pPlans, opt, report)
	if err != nil {
		endPrice()
		return nil, nil, err
	}
	endPrice(
		obs.Int("priced", report.PricedMergings),
		obs.Int("infeasible", report.InfeasibleMergings),
		obs.Int("dominated", report.DominatedMergings),
		obs.Int("bounded", report.SkippedByBound),
		obs.Int("skipped", report.Degradation.PricingSkipped),
	)
	report.Timings.Price = time.Since(phase)
	events.Publish(obs.Event{
		Type: obs.EventPhaseEnd, Phase: "price",
		Candidates: len(report.Candidates),
	})

	// --- Step 2: weighted unate covering. ---
	phase = time.Now()
	events.Publish(obs.Event{Type: obs.EventPhaseStart, Phase: "solve"})
	m, err := coverMatrix(n, report.Candidates)
	if err != nil {
		return nil, nil, err
	}
	solveCtx, endSolve := obs.Trace(ctx, "synth/solve",
		obs.Int("rows", n), obs.Int("cols", len(report.Candidates)))
	var sol ucp.Solution
	switch opt.Solver {
	case GreedySolver:
		sol, err = m.SolveGreedy()
	default:
		// Independent blocks (channel groups sharing no candidate) are
		// searched one after another — exponentially cheaper, same
		// optimum. On deadline the branch-and-bound returns its
		// greedy-seeded best incumbent rather than erroring (anytime
		// solving). The ucp layer opens its own "ucp/solve" spans under
		// solveCtx and publishes the node/prune/incumbent counters.
		sol, err = m.SolveContext(solveCtx)
	}
	if err != nil {
		endSolve()
		return nil, nil, err
	}
	endSolve(obs.Int("nodes", sol.Stats.Nodes), obs.Bool("optimal", sol.Optimal))
	report.UCPStats = sol.Stats
	report.SolverOptimal = sol.Optimal
	if sol.Interrupted {
		report.Degradation.SolverInterrupted = true
		report.Degradation.CoverLowerBound = sol.LowerBound
		report.Degradation.GapBound = sol.GapBound()
	}
	report.Cost = sol.Cost
	for _, j := range sol.Columns {
		report.Candidates[j].Selected = true
	}
	report.Timings.Solve = time.Since(phase)
	events.Publish(obs.Event{
		Type: obs.EventPhaseEnd, Phase: "solve",
		Cost: sol.Cost, Nodes: sol.Stats.Nodes, Optimal: sol.Optimal,
	})

	// --- Materialize the selected candidates. ---
	phase = time.Now()
	events.Publish(obs.Event{Type: obs.EventPhaseStart, Phase: "materialize"})
	_, endMat := obs.Trace(ctx, "synth/materialize",
		obs.Int("selected", len(sol.Columns)))
	ig, err := materialize(cg, lib, report)
	if err != nil {
		endMat()
		return nil, nil, err
	}
	endMat()
	report.Timings.Materialize = time.Since(phase)
	events.Publish(obs.Event{Type: obs.EventPhaseEnd, Phase: "materialize"})
	report.Elapsed = time.Since(start)
	publishRun(ctx, report)
	return ig, report, nil
}

// coverMatrix is a run's covering instance: a row per channel and a
// column per candidate, weighted by its cost.
func coverMatrix(n int, cands []Candidate) (*ucp.Matrix, error) {
	m := ucp.NewMatrix(n)
	for _, c := range cands {
		rows := make([]int, len(c.Channels))
		for i, ch := range c.Channels {
			rows[i] = int(ch)
		}
		if _, err := m.AddColumn(ucp.Column{Rows: rows, Weight: c.Cost}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// publishRun adds the run's summary counters to the registry carried
// by ctx (no-op without one).
func publishRun(ctx context.Context, r *Report) {
	m := obs.FromContext(ctx).Metrics()
	if m == nil {
		return
	}
	m.Counter("synth/runs").Add(1)
	m.Counter("synth/candidates").Add(int64(len(r.Candidates)))
	m.Counter("synth/priced_mergings").Add(int64(r.PricedMergings))
	m.Counter("synth/infeasible_mergings").Add(int64(r.InfeasibleMergings))
	m.Counter("synth/dominated_mergings").Add(int64(r.DominatedMergings))
	m.Counter("synth/skipped_by_bound").Add(int64(r.SkippedByBound))
	m.Gauge("synth/price/workers").Set(int64(r.Workers))
}

// publishPlacement adds the pricing lanes' summed pattern-search
// tallies to the registry met (no-op when nil). The lanes count in
// plain scratch fields, so the search loop touches no instrument, and
// the sums depend only on which mergings were placed, not on how they
// were spread over the lanes.
func publishPlacement(met *obs.Registry, lanes []place.Scratch) {
	if met == nil {
		return
	}
	var sum place.Tally
	for i := range lanes {
		sum.Starts += lanes[i].Tally.Starts
		sum.RepeatedStarts += lanes[i].Tally.RepeatedStarts
		sum.Probes += lanes[i].Tally.Probes
		sum.Settled += lanes[i].Tally.Settled
	}
	met.Counter("place/starts").Add(sum.Starts)
	met.Counter("place/starts_repeated").Add(sum.RepeatedStarts)
	met.Counter("place/probes").Add(sum.Probes)
	met.Counter("place/settled").Add(sum.Settled)
}

// testPricingHook, when non-nil, is invoked with each candidate set
// just before it is priced. Tests use it to inject latency or panics
// into Step 1c; production code never sets it.
var testPricingHook func([]model.ChannelID)

// priceOne prices a single candidate set, converting a panic anywhere
// inside the placement into a typed *PricingPanicError naming the
// candidate. The recover lives here — inside the function each worker
// goroutine calls — so a panicking worker can never take down the
// process.
//
// The set is placed below bar, its point-to-point sum:
// place.OptimizeBelow reports it dominated, without a candidate, once
// a certified lower bound on every placement reaches the sum within
// num.Eps — the same test
// priceCandidates applies to a placed cost, which is never below that
// bound. So a skipped set is exactly one that pricing would have found
// dominated, and every other set gets exactly Optimize's candidate.
func priceOne(
	cg *model.ConstraintGraph, lib *library.Library,
	set []model.ChannelID, sc *place.Scratch, bar float64,
) (cand *place.Candidate, skipped bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PricingPanicError{
				Channels: append([]model.ChannelID(nil), set...),
				Value:    r,
				Stack:    debug.Stack(),
			}
		}
	}()
	if hook := testPricingHook; hook != nil {
		hook(set)
	}
	return place.OptimizeBelow(cg, lib, set, sc, bar)
}

// priceCandidates runs Step 1c — placement-pricing every enumerated
// merging — over a bounded worker pool. Candidate sets are independent
// sub-problems, so they fan out freely; results are collected into a
// slice indexed by enumeration order and appended to the report
// serially, which keeps the candidate sequence, the counters and hence
// the covering instance identical to a single-worker run. As the paper
// does, it discards every merging that costs at least its channels'
// point-to-point sum; one proved to do so is counted dominated without
// being placed (see priceOne).
//
// When ctx expires mid-phase, no further candidates are dispatched:
// already-dispatched pricings finish (each is bounded by the pattern
// search's iteration cap), undispatched ones are counted as skipped in
// Report.Degradation, and the covering step proceeds over what was
// priced. The only error it returns is a *PricingPanicError.
func priceCandidates(
	ctx context.Context,
	cg *model.ConstraintGraph, lib *library.Library,
	enum *merging.Result, p2pPlans []p2p.Plan,
	opt Options, report *Report,
) error {
	total := 0
	for k := 2; k <= len(p2pPlans); k++ {
		total += len(enum.ByK[k])
	}
	if total == 0 {
		return nil
	}
	sets := make([][]model.ChannelID, 0, total)
	for k := 2; k <= len(p2pPlans); k++ {
		sets = append(sets, enum.ByK[k]...)
	}

	type priced struct {
		cand    *place.Candidate
		err     error
		done    bool
		skipped bool // proved dominated, never placed
	}
	results := make([]priced, len(sets))
	p2pSum := func(set []model.ChannelID) float64 {
		var sum float64
		for _, ch := range set {
			sum += p2pPlans[ch].Cost
		}
		return sum
	}

	// Worker-pool instruments, fetched once and shared by every worker
	// (handles are atomic and nil-safe, so the disabled path costs one
	// nil check per pricing). pricings and the arity and duration
	// histograms count placements only, not mergings proved dominated
	// first. queue_depth counts not-yet-priced mergings:
	// it starts at the backlog size, ends at zero on a full run, and on
	// deadline is left at exactly the skipped count.
	sink := obs.FromContext(ctx)
	met := sink.Metrics()
	now := sink.Clock()
	pricings := met.Counter("synth/price/pricings")
	arityHist := met.Histogram("synth/price/arity", 2, 3, 4, 6, 8, 12, 16)
	durHist := met.Histogram("synth/price/duration_us", 100, 1_000, 10_000, 100_000, 1_000_000)
	queueDepth := met.Gauge("synth/price/queue_depth")
	queueDepth.Set(int64(len(sets)))
	// Each pricing lane owns one placement scratch: the buffers behind
	// the pattern search and convex seed are reused across every
	// candidate the lane prices, so a warm pricing allocates only the
	// candidate it returns. Lane scratches are never shared (Optimize
	// mutates them).
	priceSet := func(i int, sc *place.Scratch) {
		var t0 time.Time
		if durHist != nil {
			t0 = now()
		}
		cand, skipped, err := priceOne(cg, lib, sets[i], sc, p2pSum(sets[i]))
		results[i] = priced{cand: cand, err: err, done: true, skipped: skipped}
		queueDepth.Add(-1)
		if skipped {
			return
		}
		if durHist != nil {
			durHist.Record(now().Sub(t0).Microseconds())
		}
		pricings.Add(1)
		arityHist.Record(int64(len(sets[i])))
	}

	done := ctx.Done()
	canceled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	workers := opt.workers()
	if workers > len(sets) {
		workers = len(sets)
	}
	// scratch_pools reports how many placement scratches the phase kept
	// alive (one per pricing lane). A gauge, not a counter: the value
	// follows the worker count, which is machine-dependent by default,
	// and gauges stay out of the benchmark baselines.
	met.Gauge("synth/price/scratch_pools").Set(int64(max(workers, 1)))
	lanes := make([]place.Scratch, max(workers, 1))
	if workers <= 1 {
		for i := range sets {
			if canceled() {
				break
			}
			priceSet(i, &lanes[0])
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(sc *place.Scratch) {
				defer wg.Done()
				// Workers run on their own goroutines, so ctx's pprof
				// label set (phase=synth/price, plus any workload
				// labels) must be applied explicitly for CPU profiles
				// to attribute their samples.
				obs.ApplyGoroutineLabels(ctx)
				for i := range jobs {
					priceSet(i, sc)
				}
			}(&lanes[w])
		}
		for i := range sets {
			if canceled() {
				break
			}
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	publishPlacement(met, lanes)

	for i, set := range sets {
		if !results[i].done {
			report.Degradation.PricingSkipped++
			continue
		}
		if results[i].skipped {
			report.DominatedMergings++
			report.SkippedByBound++
			continue
		}
		cand, err := results[i].cand, results[i].err
		if err != nil {
			var pe *PricingPanicError
			if errors.As(err, &pe) {
				return err
			}
			report.InfeasibleMergings++
			continue
		}
		if num.GreaterEq(cand.Cost, p2pSum(set)) {
			report.DominatedMergings++
			continue
		}
		report.PricedMergings++
		report.Candidates = append(report.Candidates, Candidate{
			Channels: append([]model.ChannelID(nil), set...),
			Kind:     "merge",
			Cost:     cand.Cost,
			Merge:    cand,
		})
	}
	if report.Degradation.PricingSkipped > 0 {
		report.Degradation.PricingInterrupted = true
	}
	return nil
}

// materialize builds the implementation graph from the selected
// candidates. A channel covered by several selected candidates receives
// the union of their path sets, so every built link is referenced.
func materialize(cg *model.ConstraintGraph, lib *library.Library, report *Report) (*impl.Graph, error) {
	ig := impl.New(cg)
	pathsOf := make(map[model.ChannelID][]graph.Path)

	for _, cand := range report.Candidates {
		if !cand.Selected {
			continue
		}
		switch cand.Kind {
		case "p2p":
			ch := cand.Channels[0]
			c := cg.Channel(ch)
			paths, err := p2p.BuildChains(ig, graph.VertexID(c.From), graph.VertexID(c.To), *cand.Plan, lib, c.Name)
			if err != nil {
				return nil, err
			}
			pathsOf[ch] = append(pathsOf[ch], paths...)
		case "merge":
			// Instantiate assigns directly; collect and merge instead.
			before := make(map[model.ChannelID][]graph.Path, len(cand.Channels))
			for _, ch := range cand.Channels {
				before[ch] = ig.Implementation(ch)
			}
			if err := cand.Merge.Instantiate(ig, lib); err != nil {
				return nil, err
			}
			for _, ch := range cand.Channels {
				pathsOf[ch] = append(pathsOf[ch], ig.Implementation(ch)...)
				ig.AssignImplementation(ch, before[ch])
			}
		default:
			return nil, fmt.Errorf("synth: unknown candidate kind %q", cand.Kind)
		}
	}
	// Assign in sorted channel order: each key is touched exactly once
	// so the result cannot depend on order, but iterating the map
	// directly would still trip the mapiter determinism invariant.
	channels := make([]model.ChannelID, 0, len(pathsOf))
	for ch := range pathsOf {
		channels = append(channels, ch)
	}
	sort.Slice(channels, func(i, j int) bool { return channels[i] < channels[j] })
	for _, ch := range channels {
		ig.AssignImplementation(ch, pathsOf[ch])
	}
	if err := ig.Verify(); err != nil {
		return nil, fmt.Errorf("synth: internal error: synthesized graph fails verification: %w", err)
	}
	return ig, nil
}
