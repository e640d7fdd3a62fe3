package place

import (
	"math"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/num"
)

// LowerBound returns a certified lower bound on the cost of every
// placement of the merging of channels, and so on the cost Optimize
// returns for it. It returns −Inf when Optimize may reject the merging:
// fewer than two channels, no mux/demux nodes, or a piece that cannot
// be priced with the hubs on the first channel's endpoints.
//
// Every piece costs at least its curve's Envelope line, so a candidate
// costs at least mux + demux + all 2k+1 envelope intercepts + R(x₁,x₂),
// where
//
//	R(x₁,x₂) = Σᵢ aᵢ‖uᵢ−x₁‖ + a_t‖x₁−x₂‖ + Σᵢ aᵢ‖x₂−vᵢ‖
//
// weighs each piece by its envelope slope. LowerBound adds the largest
// certified lower bound on min R that OptimizeBelow tries before it
// places a merging: the λ split (splitBound) and the weak-duality
// certificate (certificate.value) read off the trial hubs and off the
// collapsed point. Once the scratch has grown to the merging's size
// the call allocates nothing.
func LowerBound(cg *model.ConstraintGraph, lib *library.Library, channels []model.ChannelID, sc *Scratch) float64 {
	if len(channels) < 2 {
		return math.Inf(-1)
	}
	mux, okM := lib.CheapestNode(library.Mux)
	demux, okD := lib.CheapestNode(library.Demux)
	if !okM || !okD {
		return math.Inf(-1)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	stage(cg, lib, channels, sc)
	c := &sc.cert
	if !c.reset(cg.Norm(), mux.Cost+demux.Cost, math.Inf(1), sc) {
		return math.Inf(-1)
	}
	c.search(sc)
	return c.base + c.best
}

// certificate proves a merging dominated: it keeps the best certified
// lower bound on min R found so far and reports when base + best, the
// bound on the placed cost, reaches the bar (the channels'
// point-to-point sum) within num.Eps. That is the same tolerant test
// synthesis applies to a placed cost, and the placed cost is never
// below the bound, so a proof only ever skips a merging that placing
// it would have found dominated. Coordinates are centred on the first
// channel's source, so the certificate's inner products do not cancel
// large absolute positions.
type certificate struct {
	norm, dual   geom.Norm
	origin       geom.Point
	ends         []geom.Point // the sources then the destinations, centred on origin
	src, dst     []geom.Point // the two halves of ends
	slopes       []float64
	wTrunk       float64
	total, limit float64    // Σaᵢ, and the largest trunk flow the θ repair accepts
	meanU, meanV geom.Point // slope-weighted means of src and dst
	base         float64    // mux + demux + every envelope intercept
	bar, best    float64
}

// reset loads the staged merging in sc, sets the bar and records the λ
// split as the first bound. It reports false, leaving the merging
// unprovable, when Optimize may reject it: Optimize fails only when
// every start it searches from prices at +Inf. The general path always
// starts from channel 0's own endpoints; the convex path's pieces price
// finitely at every distance once they do at one. Checking that start
// with Optimize's own distance expressions means a merging Optimize
// would reject is never proved dominated.
func (c *certificate) reset(norm geom.Norm, nodeCost, bar float64, sc *Scratch) bool {
	sources, dests, access, trunk := sc.sources, sc.dests, sc.access, &sc.trunk
	x1, x2 := sources[0], dests[0]
	if math.IsInf(trunk.Cost(norm.Distance(x1, x2)), 1) {
		return false
	}
	for i := range access {
		if math.IsInf(access[i].Cost(norm.Distance(sources[i], x1)), 1) ||
			math.IsInf(access[i].Cost(norm.Distance(x2, dests[i])), 1) {
			return false
		}
	}
	c.norm, c.origin, c.bar = norm, x1, bar
	c.ends = resize(&sc.ends, 2*len(sources))
	c.src, c.dst = c.ends[:len(sources)], c.ends[len(sources):]
	c.slopes = resize(&sc.slopes, len(sources))
	var intercept float64
	c.wTrunk, c.base = trunk.Envelope()
	c.base += nodeCost
	c.total, c.meanU, c.meanV = 0, geom.Point{}, geom.Point{}
	for i := range access {
		c.src[i], c.dst[i] = sources[i].Sub(c.origin), dests[i].Sub(c.origin)
		c.slopes[i], intercept = access[i].Envelope()
		c.base += 2 * intercept
		a := c.slopes[i]
		c.meanU, c.meanV = c.meanU.Add(c.src[i].Scale(a)), c.meanV.Add(c.dst[i].Scale(a))
		c.total += a
	}
	if c.total > 0 {
		c.meanU, c.meanV = c.meanU.Scale(1/c.total), c.meanV.Scale(1/c.total)
	}
	// The θ repair needs ‖s‖* < Σaᵢ strictly.
	c.limit = math.Min(c.wTrunk, 0.999*c.total)
	c.dual, _ = geom.Dual(norm)
	c.best = splitBound(norm, c.src, c.dst, c.slopes, c.wTrunk, sc)
	return true
}

// proved reports whether the bound has reached the bar; a nil
// certificate proves nothing.
func (c *certificate) proved() bool {
	return c != nil && num.GreaterEq(c.base+c.best, c.bar)
}

// search tries the certificate's own trial hubs after the λ split,
// stopping at the first that proves the bar: the hubs after each of
// two rounds of alternating medians, each median capped at 10
// iterations (they only choose the duals, so they need not converge),
// then the collapsed point, both hubs on the slope-weighted
// Fermat–Weber point of all 2k endpoints. Alternation stalls once the
// hubs meet, because moving either hub alone off the other only
// lengthens the trunk, yet that is where many mergings' optimal hubs
// sit. The collapsed point's sites often straddle two distant
// clusters, an ill-conditioned shape where Weiszfeld crawls, so its 10
// iterations are finished by Newton steps (geom.RefineMedian).
func (c *certificate) search(sc *Scratch) bool {
	if c.proved() || c.dual == nil || c.total <= 0 {
		return c.proved()
	}
	if alternateMedians(c.norm, sc.sources, sc.dests, c.slopes, c.wTrunk, 10, 2, 0, c, sc); c.proved() {
		return true
	}
	sites := append(append(sc.pts[:0], sc.sources...), sc.dests...)
	weights := append(append(sc.wAll[:0], c.slopes...), c.slopes...)
	sc.pts, sc.wAll = sites, weights
	x := geom.WeightedMedian(c.norm, sites, weights, geom.MedianOptions{MaxIter: 10, Scratch: &sc.median})
	x = geom.RefineMedian(c.norm, sites, weights, x, 8)
	return c.at(x, x)
}

// at evaluates the certificate at hubs x1 and x2, given in the
// merging's own coordinates, and with either or both hubs snapped to
// their nearest endpoint. Iterative medians reach an optimum on an
// endpoint only in the limit, and only a hub exactly on an endpoint
// hands that piece the residual (see value). It reports whether the
// bar is proved.
func (c *certificate) at(x1, x2 geom.Point) bool {
	if c.dual == nil || c.total <= 0 {
		return c.proved()
	}
	x1, x2 = x1.Sub(c.origin), x2.Sub(c.origin)
	s1, s2 := c.snap(x1), c.snap(x2)
	for _, h := range [4][2]geom.Point{{x1, x2}, {s1, s2}, {x1, s2}, {s1, x2}} {
		if c.best = math.Max(c.best, c.value(h[0], h[1])); c.proved() {
			return true
		}
	}
	return false
}

// snap returns the endpoint nearest to x.
func (c *certificate) snap(x geom.Point) geom.Point {
	best, dist := x, math.Inf(1)
	for _, e := range c.ends {
		if d := c.norm.Distance(x, e); d < dist {
			best, dist = e, d
		}
	}
	return best
}

// splitBound is the λ split. For any λ ≥ 0 with Σλᵢ ≤ a_t the trunk
// term a_t‖x₁−x₂‖ covers Σλᵢ‖x₁−x₂‖; channel i's three legs then weigh
// at least min(aᵢ, λᵢ) along a path from uᵢ to vᵢ, so by the triangle
// inequality R ≥ Σ min(aᵢ, λᵢ)·‖uᵢ−vᵢ‖ at every hub pair. The best λ
// fills the longest channels first (a fractional knapsack). It holds
// under every norm.
func splitBound(norm geom.Norm, sources, dests []geom.Point, slopes []float64, wTrunk float64, sc *Scratch) float64 {
	lengths := resize(&sc.lengths, len(sources))
	order := resize(&sc.order, len(sources))
	for i := range sources {
		lengths[i] = norm.Distance(sources[i], dests[i])
		order[i] = i
		for j := i; j > 0 && lengths[order[j-1]] < lengths[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	var bound float64
	budget := wTrunk
	for _, i := range order {
		if budget <= 0 {
			break
		}
		lambda := math.Min(slopes[i], budget)
		bound += lambda * lengths[i]
		budget -= lambda
	}
	return bound
}

// value is a weak-duality certificate for min R read off hubs x1 and
// x2 (centred). Each weighted norm is a maximum over its dual ball:
//
//	aᵢ‖x₁−uᵢ‖ ≥ ⟨pᵢ, x₁−uᵢ⟩,  a_t‖x₂−x₁‖ ≥ ⟨s, x₂−x₁⟩,  aᵢ‖vᵢ−x₂‖ ≥ ⟨qᵢ, vᵢ−x₂⟩
//
// for ‖pᵢ‖*, ‖qᵢ‖* ≤ aᵢ and ‖s‖* ≤ a_t. Summed, the hub terms cancel
// when Σpᵢ = Σqᵢ = s, leaving R ≥ Σ⟨qᵢ, vᵢ⟩ − Σ⟨pᵢ, uᵢ⟩ at every hub
// pair. A piece whose endpoint lies off its hub takes its scaled
// subgradient there, pᵢ = aᵢ·∂‖x₁−uᵢ‖ or qᵢ = aᵢ·∂‖vᵢ−x₂‖. The pieces
// whose endpoint sits on the hub, where the subgradient is the whole
// dual ball, share the residual s − Σ(other duals), clipped to their
// balls (see residual): Kuhn's optimality condition for a Fermat–Weber
// point on a site is exactly that this residual fits. The duals then
// go through the θ repair (repairedSum) for each trunk flow s tried:
// zero, either side's sum, their mean and, with the hubs apart, the
// trunk's own flow a_t·∂‖x₂−x₁‖. Every dual stays inside its ball, so
// any choice is sound; duals read off optimal hubs make it tight.
func (c *certificate) value(x1, x2 geom.Point) float64 {
	var sumP, sumQ geom.Point
	var dotP, dotQ, capP, capQ float64
	for i, a := range c.slopes {
		if u := c.src[i]; u.Eq(x1) {
			capP += a
		} else {
			p := geom.Subgradient(c.norm, x1.Sub(u)).Scale(a)
			sumP, dotP = sumP.Add(p), dotP+p.Dot(u)
		}
		if v := c.dst[i]; v.Eq(x2) {
			capQ += a
		} else {
			q := geom.Subgradient(c.norm, v.Sub(x2)).Scale(a)
			sumQ, dotQ = sumQ.Add(q), dotQ+q.Dot(v)
		}
	}
	flows := [5]geom.Point{{}, sumP, sumQ, sumP.Add(sumQ).Scale(0.5)}
	n := 4
	if !x1.Eq(x2) {
		flows[4], n = geom.Subgradient(c.norm, x2.Sub(x1)).Scale(c.wTrunk), 5
	}
	var best float64
	for _, s := range flows[:n] {
		if m := c.dual.Distance(s, geom.Point{}); m > c.limit {
			s = s.Scale(c.limit / m)
		}
		p, dp := residual(c.dual, s, sumP, dotP, x1, capP)
		q, dq := residual(c.dual, s, sumQ, dotQ, x2, capQ)
		best = math.Max(best, repairedSum(c.dual, q, dq, c.meanV, s, c.total)-repairedSum(c.dual, p, dp, c.meanU, s, c.total))
	}
	return best
}

// residual hands the pieces whose endpoint sits on hub the flow their
// side still lacks, r = s − sum, clipped to the summed radius
// (capacity) of their dual balls; piece j takes r·aⱼ/capacity, inside
// its own ball, and Σⱼ⟨r·aⱼ/capacity, hub⟩ = ⟨r, hub⟩. It returns the
// side's dual sum and Σ⟨pᵢ, xᵢ⟩ with them included.
func residual(dual geom.Norm, s, sum geom.Point, dot float64, hub geom.Point, capacity float64) (geom.Point, float64) {
	if capacity <= 0 {
		return sum, dot
	}
	r := s.Sub(sum)
	if n := dual.Distance(r, geom.Point{}); n > capacity {
		r = r.Scale(capacity / n)
	}
	return sum.Add(r), dot + r.Dot(hub)
}

// repairedSum returns Σ⟨p′ᵢ, xᵢ⟩ for the repaired duals
//
//	p′ᵢ = (1−θ)·pᵢ + (aᵢ/A)·(s − (1−θ)·P),  θ = ‖s−P‖* / (‖s−P‖* + A − ‖s‖*),
//
// where P = Σpᵢ (sum) and A = Σaᵢ (total). The p′ᵢ sum to s exactly,
// and θ is the least shrink keeping each inside its dual ball:
// ‖p′ᵢ‖* ≤ (1−θ)aᵢ + (aᵢ/A)·((1−θ)‖s−P‖* + θ‖s‖*) = aᵢ. The sum needs
// only P, Σ⟨pᵢ, xᵢ⟩ (dot) and the slope-weighted mean of the xᵢ.
func repairedSum(dual geom.Norm, sum geom.Point, dot float64, mean, s geom.Point, total float64) float64 {
	gap := dual.Distance(s, sum)
	theta := gap / (gap + total - dual.Distance(s, geom.Point{}))
	return (1-theta)*dot + s.Sub(sum.Scale(1-theta)).Dot(mean)
}
