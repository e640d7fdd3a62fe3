package place

import (
	"math"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/model"
)

// LowerBound returns a certified lower bound on the cost of every
// placement of the merging of channels, and so on the cost Optimize
// returns for it. It returns −Inf when Optimize may reject the merging:
// fewer than two channels, no mux/demux nodes, or a piece that cannot
// be priced with the hubs on the first channel's endpoints. Synthesis
// compares the bound with the channels' point-to-point sum and skips
// placing a merging the bound already proves dominated.
//
// Every piece costs at least its curve's Envelope line, so a candidate
// costs at least mux + demux + all 2k+1 envelope intercepts + R(x₁,x₂),
// where
//
//	R(x₁,x₂) = Σᵢ aᵢ‖uᵢ−x₁‖ + a_t‖x₁−x₂‖ + Σᵢ aᵢ‖x₂−vᵢ‖
//
// weighs each piece by its envelope slope. LowerBound adds the larger
// of two certified lower bounds on min R: the λ split (splitBound) and
// a weak-duality certificate (dualBound). Coordinates are centred on
// the first channel's source, so the certificate's inner products do
// not cancel large absolute positions. Once the scratch has grown to
// the merging's size the call allocates nothing.
func LowerBound(cg *model.ConstraintGraph, lib *library.Library, channels []model.ChannelID, opt Options) float64 {
	if len(channels) < 2 {
		return math.Inf(-1)
	}
	mux, okM := lib.CheapestNode(library.Mux)
	demux, okD := lib.CheapestNode(library.Demux)
	if !okM || !okD {
		return math.Inf(-1)
	}
	sc := opt.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	stage(cg, lib, channels, opt, sc)
	sources, dests, access, trunk := sc.sources, sc.dests, sc.access, &sc.trunk
	slopes := resize(&sc.weights, len(channels))

	// Optimize fails only when every start it searches from prices at
	// +Inf. The general path always starts from channel 0's own
	// endpoints; the convex path's pieces price finitely at every
	// distance once they do at one. Checking that start with Optimize's
	// own distance expressions means a merging Optimize would reject is
	// never reported bounded, so it is never skipped as dominated.
	norm := cg.Norm()
	x1, x2 := sources[0], dests[0]
	if math.IsInf(trunk.Cost(norm.Distance(x1, x2)), 1) {
		return math.Inf(-1)
	}
	for i := range access {
		if math.IsInf(access[i].Cost(norm.Distance(sources[i], x1)), 1) ||
			math.IsInf(access[i].Cost(norm.Distance(x2, dests[i])), 1) {
			return math.Inf(-1)
		}
	}

	bound := mux.Cost + demux.Cost
	wTrunk, intercept := trunk.Envelope()
	bound += intercept
	origin := sources[0]
	for i := range access {
		sources[i], dests[i] = sources[i].Sub(origin), dests[i].Sub(origin)
		slopes[i], intercept = access[i].Envelope()
		bound += 2 * intercept
	}
	return bound + math.Max(
		splitBound(norm, sources, dests, slopes, wTrunk, sc),
		dualBound(norm, sources, dests, slopes, wTrunk, sc))
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

// dualBound is a weak-duality certificate for min R. Each weighted norm
// is a maximum over its dual ball:
//
//	aᵢ‖x₁−uᵢ‖ ≥ ⟨pᵢ, x₁−uᵢ⟩,  a_t‖x₂−x₁‖ ≥ ⟨s, x₂−x₁⟩,  aᵢ‖vᵢ−x₂‖ ≥ ⟨qᵢ, vᵢ−x₂⟩
//
// for ‖pᵢ‖*, ‖qᵢ‖* ≤ aᵢ and ‖s‖* ≤ a_t. Summed, the hub terms cancel
// when Σpᵢ = Σqᵢ = s, leaving R ≥ Σ⟨qᵢ, vᵢ⟩ − Σ⟨pᵢ, uᵢ⟩ at every hub
// pair. The duals are the scaled subgradients at trial hubs, pᵢ =
// aᵢ·∂‖x̂₁−uᵢ‖ and qᵢ = aᵢ·∂‖vᵢ−x̂₂‖, repaired to balance exactly for
// each of four trunk flows s (see repairedSum). Any choice is sound;
// duals read off near-optimal hubs make it tight. It returns 0 for a
// norm without a known dual.
func dualBound(norm geom.Norm, sources, dests []geom.Point, slopes []float64, wTrunk float64, sc *Scratch) float64 {
	dual, ok := geom.Dual(norm)
	if !ok {
		return 0
	}
	// Trial hubs near a minimizer of R: two rounds of alternating
	// medians, each capped at 10 iterations. They only choose the
	// duals, so they need not converge.
	x1, x2 := alternateMedians(norm, sources, dests, slopes, wTrunk, 10, 2, 0, sc)
	var sumP, sumQ, meanU, meanV geom.Point
	var dotP, dotQ, total float64
	for i, a := range slopes {
		p := geom.Subgradient(norm, x1.Sub(sources[i])).Scale(a)
		q := geom.Subgradient(norm, dests[i].Sub(x2)).Scale(a)
		sumP, dotP = sumP.Add(p), dotP+p.Dot(sources[i])
		sumQ, dotQ = sumQ.Add(q), dotQ+q.Dot(dests[i])
		meanU, meanV = meanU.Add(sources[i].Scale(a)), meanV.Add(dests[i].Scale(a))
		total += a
	}
	if total <= 0 {
		return 0
	}
	meanU, meanV = meanU.Scale(1/total), meanV.Scale(1/total)
	// The repair needs ‖s‖* < Σaᵢ strictly.
	limit := math.Min(wTrunk, 0.999*total)
	var best float64
	for _, s := range [4]geom.Point{{}, sumP, sumQ, sumP.Add(sumQ).Scale(0.5)} {
		if n := dual.Distance(s, geom.Point{}); n > limit {
			s = s.Scale(limit / n)
		}
		d := repairedSum(dual, sumQ, dotQ, meanV, s, total) - repairedSum(dual, sumP, dotP, meanU, s, total)
		best = math.Max(best, d)
	}
	return best
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
