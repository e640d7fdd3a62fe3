// Package place solves the per-candidate "simple nonlinear optimization
// problem" of Section 3: given a set of constraint arcs chosen for a
// k-way merging, find the positions of the merging communication
// vertices and the resulting candidate cost.
//
// The candidate structure follows the paper's composition rules: a
// multiplexer vertex at position x₁ collects the k channels from their
// source ports, a single shared trunk (the common path q* of Definition
// 2.8) carries the combined traffic to a de-multiplexer vertex at x₂,
// and access links deliver each channel to its destination port. Every
// piece (access links and trunk) is itself implemented point-to-point by
// the p2p package, so a long trunk is transparently segmented with
// repeaters and a fat access leg transparently duplicated. The trunk is
// one chain sized for the sum of the merged bandwidths: the multiplexer
// of the paper has "one outgoing link whose bandwidth is larger than
// the sum of the incoming", and impl.Verify checks shared links by the
// same sum.
//
// The optimization over (x₁, x₂) ∈ R⁴ is a multistart pattern search on
// the exact cost function. For length-priced libraries the objective is
// a weighted sum of norms — jointly convex — so the search converges to
// the global optimum; for fixed-priced (step-cost) libraries the result
// is the best point among the explored pattern, which is the classical
// engineering treatment of such piecewise-constant costs. The search
// prices each compass direction's three probes from 2k+3 piece costs,
// sharing the moved hubs' pieces between them, skips a start equal to
// an earlier one, and ends as soon as no smaller step can improve its
// base: every piece curve is nondecreasing in distance, so once no
// piece gets cheaper when shortened by the longest compass move, no
// later probe can be accepted. None of these changes a result: every
// probe is the same float sum as a full evaluation, a repeated start
// could only retrace a search that already lost or tied, and a search
// that ends early returns what its remaining halvings would have.
//
// LowerBound certifies, without searching, a cost below which no
// placement of a merging can go. OptimizeBelow checks the same
// certificate against the channels' point-to-point sum before and
// during its search; synthesis uses it to skip placing mergings that
// are dominated wherever their hubs land.
package place

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/p2p"
)

// maxIter bounds the general path's pattern-search iterations per
// start.
const maxIter = 120

// Scratch holds reusable buffers for the per-call endpoint staging,
// cost curves, the pattern search's piece costs and the convex-seed
// alternation, so that once it has grown an Optimize call allocates
// only the candidate it returns, and a LowerBound call or a dominance
// proof nothing at all. The zero value is ready to use; buffers grow
// to the largest merging priced through them and are reused verbatim
// afterwards. Every entry point takes a scratch, nil meaning a fresh
// one for the call. A scratch must not be shared between concurrent
// calls; synthesis keeps one per pricing worker and publishes the sum
// of their Tally fields once per run.
type Scratch struct {
	sources, dests     []geom.Point
	bws                []float64
	access             []p2p.Curve
	trunk              p2p.Curve
	pieces             []float64 // the pattern search's in, out, pin and pout, k costs each
	pts                []geom.Point
	weights            []float64
	srcSites, dstSites []geom.Point
	wAll               []float64
	starts             [][2]geom.Point
	median             geom.MedianScratch
	lengths            []float64
	order              []int
	ends               []geom.Point
	slopes             []float64
	cert               certificate

	// Tally counts the pattern-search work done through the scratch
	// since it was made.
	Tally Tally
}

// Tally counts pattern-search work. Each count depends only on the
// mergings placed, never on timing or on which scratch placed them.
type Tally struct {
	// Starts counts the pattern searches run: one per general-path
	// start searched, and one for the convex path's polish.
	Starts int64
	// RepeatedStarts counts the general-path starts skipped because
	// they equal an earlier start of the same merging.
	RepeatedStarts int64
	// Probes counts the hub pairs priced: one per search, plus 24
	// (three moves in each of eight directions) per iteration run; a
	// search that settles runs no further iteration.
	Probes int64
	// Settled counts the searches that ended because no smaller step
	// could improve their base (see settled), before their step reached
	// its floor or their iterations ran out.
	Settled int64
}

// Candidate is a priced k-way merging: the optimized hub positions, the
// plans for every piece, and the total cost (including the mux and demux
// node costs).
type Candidate struct {
	Channels  []model.ChannelID
	MuxPos    geom.Point
	DemuxPos  geom.Point
	TrunkPlan p2p.Plan
	// AccessIn[i] implements source→mux for Channels[i]; AccessOut[i]
	// implements demux→destination.
	AccessIn  []p2p.Plan
	AccessOut []p2p.Plan
	// MuxNode and DemuxNode are the library nodes instantiated at the
	// hubs.
	MuxNode, DemuxNode library.Node
	Cost               float64
}

// Optimize prices the merging of the given channels (k ≥ 2) over the
// library, returning the best candidate found. It returns an error when
// the merging is infeasible: the library lacks mux/demux nodes, or no
// single link chain can carry the combined trunk traffic.
func Optimize(cg *model.ConstraintGraph, lib *library.Library, channels []model.ChannelID, sc *Scratch) (*Candidate, error) {
	cand, _, err := OptimizeBelow(cg, lib, channels, sc, math.Inf(1))
	return cand, err
}

// OptimizeBelow is Optimize for a merging that is worth keeping only
// if it costs less than bar, its channels' summed point-to-point cost.
// It first tries to prove that every placement costs at least bar
// (within num.Eps): the λ split, then a weak-duality certificate at its
// own trial hubs and at the collapsed point (see LowerBound), and on a
// length-priced library again after every round of the convex seed's
// alternation. A proof returns dominated, with no candidate and
// without the polish or the build. A merging it cannot prove gets
// exactly Optimize's candidate; an infinite bar proves nothing and
// costs nothing extra.
func OptimizeBelow(cg *model.ConstraintGraph, lib *library.Library, channels []model.ChannelID, sc *Scratch, bar float64) (cand *Candidate, dominated bool, err error) {
	if len(channels) < 2 {
		return nil, false, fmt.Errorf("place: merging needs at least 2 channels, got %d", len(channels))
	}
	mux, okM := lib.CheapestNode(library.Mux)
	demux, okD := lib.CheapestNode(library.Demux)
	if !okM || !okD {
		return nil, false, fmt.Errorf("place: library lacks mux/demux nodes; merging unavailable")
	}

	if sc == nil {
		sc = &Scratch{}
	}
	trunkBW := stage(cg, lib, channels, sc)
	sources, dests, bws, access, trunk := sc.sources, sc.dests, sc.bws, sc.access, &sc.trunk
	norm := cg.Norm()
	nodeCost := mux.Cost + demux.Cost

	var cert *certificate
	if !math.IsInf(bar, 1) && sc.cert.reset(norm, nodeCost, bar, sc) {
		if sc.cert.search(sc) {
			return nil, true, nil
		}
		cert = &sc.cert
	}

	// build constructs the full candidate at the chosen positions. The
	// candidate escapes to the caller, so its slices are fresh
	// exact-capacity allocations, never scratch views.
	build := func(x1, x2 geom.Point) (*Candidate, error) {
		cand := &Candidate{
			Channels:  append([]model.ChannelID(nil), channels...),
			MuxPos:    x1,
			DemuxPos:  x2,
			MuxNode:   mux,
			DemuxNode: demux,
			AccessIn:  make([]p2p.Plan, 0, len(channels)),
			AccessOut: make([]p2p.Plan, 0, len(channels)),
		}
		trunk, err := p2p.BestPlan(norm.Distance(x1, x2), trunkBW, lib, true)
		if err != nil {
			return nil, err
		}
		cand.TrunkPlan = trunk
		total := mux.Cost + demux.Cost + trunk.Cost
		for i := range channels {
			in, err := p2p.BestPlan(norm.Distance(sources[i], x1), bws[i], lib, false)
			if err != nil {
				return nil, err
			}
			out, err := p2p.BestPlan(norm.Distance(x2, dests[i]), bws[i], lib, false)
			if err != nil {
				return nil, err
			}
			cand.AccessIn = append(cand.AccessIn, in)
			cand.AccessOut = append(cand.AccessOut, out)
			total += in.Cost + out.Cost
		}
		cand.Cost = total
		return cand, nil
	}

	pts := append(append(sc.pts[:0], sources...), dests...)
	sc.pts = pts
	bb := geom.Bounds(pts)
	initStep := math.Max(bb.Width(), bb.Height())
	if initStep == 0 {
		initStep = 1
	}

	bestCost := math.Inf(1)
	var bestX1, bestX2 geom.Point

	// Fast path: with a pure length-priced library the objective is a
	// jointly convex weighted sum of norms, solved directly by
	// alternating weighted medians; a short small-step polish absorbs
	// the iteration tolerance. A round whose hubs prove the merging
	// dominated ends it before the polish.
	if seed, ok := convexSeed(norm, lib, sources, dests, access, trunk, cert, sc); ok {
		if cert.proved() {
			return nil, true, nil
		}
		bestCost, bestX1, bestX2 = sc.patternSearch(norm, nodeCost, seed[0], seed[1], initStep*0.02, 20)
	} else {
		// General path: multistart pattern search from the endpoint
		// medians, centroids, and each channel's own endpoints. A start
		// equal to an earlier one is skipped: its search would retrace
		// the earlier search exactly, and an equal cost never replaces
		// the best under the strict comparison below.
		mopt := geom.MedianOptions{Scratch: &sc.median}
		starts := append(sc.starts[:0],
			[2]geom.Point{geom.WeightedMedian(norm, sources, bws, mopt),
				geom.WeightedMedian(norm, dests, bws, mopt)},
			[2]geom.Point{geom.Centroid(sources), geom.Centroid(dests)},
		)
		for i := range sources {
			starts = append(starts, [2]geom.Point{sources[i], dests[i]})
		}
		sc.starts = starts
		for i, s := range starts {
			if repeated(starts[:i], s) {
				sc.Tally.RepeatedStarts++
				continue
			}
			if c, x1, x2 := sc.patternSearch(norm, nodeCost, s[0], s[1], initStep, maxIter); c < bestCost {
				bestCost, bestX1, bestX2 = c, x1, x2
			}
		}
	}
	if math.IsInf(bestCost, 1) {
		return nil, false, fmt.Errorf("place: merging of %d channels infeasible (trunk bandwidth %.6g exceeds every library chain)",
			len(channels), trunkBW)
	}
	cand, err = build(bestX1, bestX2)
	return cand, false, err
}

// stage loads the merging of channels into sc: its endpoints and
// bandwidths, one access curve per channel, and the trunk curve. The
// trunk is a single chain so that all merged channels share one common
// path (Definition 2.8's q*), sized for their summed bandwidth, which
// it returns.
func stage(cg *model.ConstraintGraph, lib *library.Library, channels []model.ChannelID, sc *Scratch) (trunkBW float64) {
	sources := resize(&sc.sources, len(channels))
	dests := resize(&sc.dests, len(channels))
	bws := resize(&sc.bws, len(channels))
	access := resize(&sc.access, len(channels))
	for i, ch := range channels {
		c := cg.Channel(ch)
		sources[i] = cg.Position(c.From)
		dests[i] = cg.Position(c.To)
		bws[i] = c.Bandwidth
		access[i].Reset(c.Bandwidth, lib, false)
		trunkBW += c.Bandwidth
	}
	sc.trunk.Reset(trunkBW, lib, true)
	return trunkBW
}

// patternDirs are the eight compass directions of the pattern search,
// hoisted to package scope so the hot loop references static data
// instead of rebuilding a slice per call.
var patternDirs = [8]geom.Point{
	{X: 1}, {X: -1}, {Y: 1}, {Y: -1},
	{X: 1, Y: 1}, {X: 1, Y: -1}, {X: -1, Y: 1}, {X: -1, Y: -1},
}

// patternSearch minimizes the cost of the merging staged in sc over
// the two hub positions with a shrinking compass pattern, starting at
// x1 and x2 with the given step, and returns the best cost and hubs
// found. For each of the eight compass directions δ it probes three
// moves built from the base before any is accepted: the mux alone
// (x₁+δ, x₂), the demux alone (x₁, x₂+δ) and both (x₁+δ, x₂+δ). A probe
// beating the best cost by more than 1e-12 is accepted, and the last
// accepted probe becomes the next base. An iteration that accepts no
// probe halves the step.
//
// The probes share their access pieces. The base's ingress and egress
// costs (in, out) are kept across directions, and each direction
// prices the moved mux's ingress (pin) and the moved demux's egress
// (pout) once, so its three probes take 2k+3 curve evaluations rather
// than 3(2k+1). The doubly moved probe prices its own trunk: a
// floating-point translation need not preserve a distance. Every total
// is (mux + demux) + trunk, then in[i] + out[i] added in channel order,
// which is build's order, so a probe's cost equals build's at the same
// hubs bit for bit. Accepting a probe adopts its pieces by swapping
// buffers, and its trunk cost becomes the base's (tc).
//
// Before each iteration that follows a halving, settled asks whether
// any probe at the current step or a smaller one, which moves a hub by
// at most reach·step, could still be accepted; when none could, the
// search returns its base at once, which is what the remaining
// halvings would have returned.
func (sc *Scratch) patternSearch(norm geom.Norm, nodeCost float64, x1, x2 geom.Point, step float64, maxIter int) (float64, geom.Point, geom.Point) {
	sources, dests, access, trunk := sc.sources, sc.dests, sc.access, &sc.trunk
	k := len(access)
	pieces := resize(&sc.pieces, 4*k)
	in, out, pin, pout := pieces[:k], pieces[k:2*k], pieces[2*k:3*k], pieces[3*k:]
	for i := range access {
		in[i] = access[i].Cost(norm.Distance(sources[i], x1))
		out[i] = access[i].Cost(norm.Distance(x2, dests[i]))
	}
	sc.Tally.Starts++
	sc.Tally.Probes++
	tc := trunk.Cost(norm.Distance(x1, x2))
	bestCost := total(nodeCost, tc, in, out)
	if math.IsInf(bestCost, 1) {
		return bestCost, x1, x2
	}
	tol := step * 1e-7
	reach := compassReach(norm)
	iter := 0
	// improved starts true because the first iteration follows no
	// halving.
	for improved := true; iter < maxIter && step > tol; iter++ {
		if !improved && sc.settled(norm, x1, x2, reach*step, tc, in, out) {
			sc.Tally.Settled++
			break
		}
		improved = false
		for _, d := range patternDirs {
			delta := d.Scale(step)
			p1, p2 := x1.Add(delta), x2.Add(delta)
			for i := range access {
				pin[i] = access[i].Cost(norm.Distance(sources[i], p1))
				pout[i] = access[i].Cost(norm.Distance(p2, dests[i]))
			}
			// moved is the last accepted probe: 1 moved the mux, 2 the
			// demux, 3 both.
			moved := 0
			t := trunk.Cost(norm.Distance(p1, x2))
			if c := total(nodeCost, t, pin, out); c < bestCost-1e-12 {
				bestCost, tc, moved = c, t, 1
			}
			t = trunk.Cost(norm.Distance(x1, p2))
			if c := total(nodeCost, t, in, pout); c < bestCost-1e-12 {
				bestCost, tc, moved = c, t, 2
			}
			t = trunk.Cost(norm.Distance(p1, p2))
			if c := total(nodeCost, t, pin, pout); c < bestCost-1e-12 {
				bestCost, tc, moved = c, t, 3
			}
			if moved&1 != 0 {
				x1, in, pin = p1, pin, in
			}
			if moved&2 != 0 {
				x2, out, pout = p2, pout, out
			}
			improved = improved || moved != 0
		}
		if !improved {
			step /= 2
		}
	}
	sc.Tally.Probes += 24 * int64(iter)
	return bestCost, x1, x2
}

// compassReach is the length of the longest compass move per unit of
// step, ‖(1, 1)‖ in each built-in norm: 2 in L1, √2 in L2 and 1 in
// L∞. Taking the longest of the eight directions keeps settled exact
// for any other norm too.
func compassReach(norm geom.Norm) float64 {
	reach := 0.0
	for _, d := range patternDirs {
		reach = max(reach, norm.Distance(d, geom.Point{}))
	}
	return reach
}

// settled reports whether no probe that moves each hub by at most r
// can be accepted from the base hubs x1, x2, whose trunk costs tc and
// whose channels' access pieces cost in and out: whether every piece,
// the trunk first, costs as much at its base length shortened by r as
// at its base length. r is widened by 1e-9 of the piece length plus r
// and the hubs' coordinate magnitudes, a margin far above the rounding
// of a probe's x+δ, of Distance and of reach·step.
//
// By the triangle inequality such a probe leaves every piece at least
// its shortened length; the p2p curves of a library Library.Validate
// accepts (non-negative costs) are nondecreasing in distance, so no
// piece costs less than at the base; and float addition is monotone,
// so no probe's total, summed in the base's order, falls below the
// best cost, let alone 1e-12 below. The base then survives every
// remaining iteration unchanged. On a length-priced curve any piece of
// nonzero length gets cheaper when shortened, so there the check fails
// at its first such piece.
func (sc *Scratch) settled(norm geom.Norm, x1, x2 geom.Point, r, tc float64, in, out []float64) bool {
	slack := r + 1e-9*(r+math.Abs(x1.X)+math.Abs(x1.Y)+math.Abs(x2.X)+math.Abs(x2.Y))
	cheaper := func(c *p2p.Curve, d, base float64) bool {
		return c.Cost(max(0, d-slack-1e-9*d)) < base
	}
	if cheaper(&sc.trunk, norm.Distance(x1, x2), tc) {
		return false
	}
	for i := range sc.access {
		if cheaper(&sc.access[i], norm.Distance(sc.sources[i], x1), in[i]) ||
			cheaper(&sc.access[i], norm.Distance(x2, sc.dests[i]), out[i]) {
			return false
		}
	}
	return true
}

// total is the cost of a candidate whose nodes cost nodeCost, whose
// trunk costs trunk and whose channels' access pieces cost in and out,
// summed in build's order.
func total(nodeCost, trunk float64, in, out []float64) float64 {
	t := nodeCost + trunk
	for i := range in {
		t += in[i] + out[i]
	}
	return t
}

// repeated reports whether start s equals one of the earlier starts.
func repeated(earlier [][2]geom.Point, s [2]geom.Point) bool {
	for _, e := range earlier {
		if e[0].Eq(s[0]) && e[1].Eq(s[1]) {
			return true
		}
	}
	return false
}

// resize returns *buf resized to n, growing the backing array only
// when the scratch has never seen a merging this large, and then by
// append's amortized growth: a pricing lane meeting arities 2, 3, 4
// and 5 in turn regrows each buffer at 2, 3 and 5, not at every new
// arity. Elements are not cleared.
func resize[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}
