package place

import (
	"math"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/p2p"
)

// convexSeed solves the hub-placement problem exactly when the library
// is purely length-priced (every link unbounded with zero fixed cost):
// then the candidate cost is
//
//	c(x₁,x₂) = Σᵢ wᵢ·‖uᵢ−x₁‖ + w_t·‖x₁−x₂‖ + Σᵢ wᵢ·‖x₂−vᵢ‖ + const
//
// with distance-independent weights: wᵢ is the envelope slope of
// channel i's access curve (duplication included) and w_t that of the
// single-chain trunk curve. On such a library the slope is the exact
// per-length rate, so the weights are the ones Optimize's evaluation
// charges. The objective is jointly convex, and block
// minimization over x₁ (a weighted median of the sources plus x₂) and
// x₂ (a weighted median of the destinations plus x₁) converges to the
// global optimum.
//
// The second return is false when the library is not purely
// length-priced or a curve is infeasible; callers then fall back to the
// general pattern search. A non-nil cert is evaluated after every
// round of the alternation, which stops early once it proves the
// merging dominated (cert.proved()); the rounds it does run are
// unchanged.
func convexSeed(
	norm geom.Norm, lib *library.Library,
	sources, dests []geom.Point, access []p2p.Curve, trunk *p2p.Curve,
	cert *certificate, sc *Scratch,
) ([2]geom.Point, bool) {
	for _, l := range lib.Links {
		if !l.Unbounded() || l.CostFixed != 0 {
			return [2]geom.Point{}, false
		}
	}
	weights := resize(&sc.weights, len(access))
	for i := range access {
		if weights[i], _ = access[i].Envelope(); math.IsInf(weights[i], 1) {
			return [2]geom.Point{}, false
		}
	}
	wTrunk, _ := trunk.Envelope()
	if math.IsInf(wTrunk, 1) {
		return [2]geom.Point{}, false
	}

	// A loose per-median iteration budget: the pattern-search polish in
	// Optimize absorbs the residual tolerance, so the alternation only
	// needs to get close.
	pts := append(append(sc.pts[:0], sources...), dests...)
	sc.pts = pts
	bb := geom.Bounds(pts)
	tol := 1e-6 * math.Max(1, math.Max(bb.Width(), bb.Height()))
	x1, x2 := alternateMedians(norm, sources, dests, weights, wTrunk, 60, 40, tol, cert, sc)
	return [2]geom.Point{x1, x2}, true
}

// alternateMedians minimizes Σᵢ wᵢ‖uᵢ−x₁‖ + w_t‖x₁−x₂‖ + Σᵢ wᵢ‖x₂−vᵢ‖ by
// block coordinate descent. The hubs start at the weighted medians of
// the sources and of the destinations; each round then moves x₁ to the
// weighted median of the sources plus x₂ (at weight w_t), and x₂ to
// that of the destinations plus x₁. Each median runs at most maxIter
// iterations, and the descent stops after rounds rounds, once a round
// moves the hubs less than tol in total, or once cert (when non-nil),
// evaluated at the hubs after every round, proves its bar.
func alternateMedians(
	norm geom.Norm, sources, dests []geom.Point, weights []float64, wTrunk float64,
	maxIter, rounds int, tol float64, cert *certificate, sc *Scratch,
) (x1, x2 geom.Point) {
	mopt := geom.MedianOptions{MaxIter: maxIter, Scratch: &sc.median}
	x1 = geom.WeightedMedian(norm, sources, weights, mopt)
	x2 = geom.WeightedMedian(norm, dests, weights, mopt)
	srcSites := append(append(sc.srcSites[:0], sources...), x2)
	dstSites := append(append(sc.dstSites[:0], dests...), x1)
	wAll := append(append(sc.wAll[:0], weights...), wTrunk)
	sc.srcSites, sc.dstSites, sc.wAll = srcSites, dstSites, wAll
	for iter := 0; iter < rounds; iter++ {
		srcSites[len(srcSites)-1] = x2
		nx1 := geom.WeightedMedian(norm, srcSites, wAll, mopt)
		dstSites[len(dstSites)-1] = nx1
		nx2 := geom.WeightedMedian(norm, dstSites, wAll, mopt)
		moved := norm.Distance(nx1, x1) + norm.Distance(nx2, x2)
		x1, x2 = nx1, nx2
		if (cert != nil && cert.at(x1, x2)) || moved < tol {
			break
		}
	}
	return x1, x2
}
