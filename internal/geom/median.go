package geom

import "math"

// The placement step of the CDCS algorithm ("a simple nonlinear
// optimization problem", Section 3) reduces to weighted single-facility
// location: position a communication vertex x to minimize
// Σᵢ wᵢ·‖x − sᵢ‖. This file provides the classical solvers:
//
//   - WeightedMedianL2: Weiszfeld iteration for the Euclidean norm,
//   - WeightedMedian:   dispatch to Weiszfeld or, for Manhattan, to an
//     exact per-axis weighted median, plus a derivative-free coordinate
//     descent fallback that works for any Norm.
//
// All of them solve convex problems, so the local optimum found is the
// global one.

// MedianOptions tunes the iterative solvers. The zero value selects
// sensible defaults.
type MedianOptions struct {
	// MaxIter bounds the number of Weiszfeld / coordinate-descent sweeps.
	// Zero means 200. Iteration also stops once a sweep moves less than
	// 1e-9 of the sites' extent.
	MaxIter int
	// Scratch, when non-nil, supplies reusable buffers for the L1
	// solver's per-axis weighted medians, making repeated calls
	// allocation-free; nil means a fresh scratch per call. The L1 solver
	// sorts by insertion, which suits the small site sets of placement
	// (a merging has k ≤ a dozen channels).
	Scratch *MedianScratch
}

// MedianScratch holds the reusable buffers behind MedianOptions.Scratch.
// A scratch must not be shared between concurrent median calls.
type MedianScratch struct {
	vals, ws []float64
}

func (o MedianOptions) maxIter() int {
	if o.MaxIter <= 0 {
		return 200
	}
	return o.MaxIter
}

// stopTol is the movement threshold below which iteration stops for
// sites spread over extent.
func stopTol(extent float64) float64 {
	if extent == 0 {
		return 1e-12
	}
	return 1e-9 * extent
}

// WeightedMedianL2 returns a minimizer of Σ wᵢ·‖x − sitesᵢ‖₂ using the
// Weiszfeld algorithm with the standard singularity handling (when the
// iterate lands on a site, the site is optimal iff its weight dominates
// the pull of the others; otherwise the iterate is nudged along the
// descent direction). A nil weights slice means unit weights. It panics
// if sites is empty or a weight is negative.
func WeightedMedianL2(sites []Point, weights []float64, opt MedianOptions) Point {
	checkSites(sites, weights)
	if len(sites) == 1 {
		return sites[0]
	}
	// Weighted centroid as the starting iterate.
	x := weightedCentroid(sites, weights)
	b := Bounds(sites)
	tol := stopTol(b.Max.Sub(b.Min).L2())

	for iter := 0; iter < opt.maxIter(); iter++ {
		var num Point
		var den float64
		var atSite = -1
		for i, s := range sites {
			d := x.Sub(s).L2()
			if d < 1e-15 {
				atSite = i
				continue
			}
			w := weightAt(weights, i)
			num = num.Add(s.Scale(w / d))
			den += w / d
		}
		if den == 0 {
			// All sites coincide with x.
			return x
		}
		next := num.Scale(1 / den)
		if atSite >= 0 {
			// Kuhn's optimality test at a site: the site is optimal iff
			// the resultant pull R of the other sites satisfies ‖R‖ ≤ w.
			var r Point
			for i, s := range sites {
				if i == atSite {
					continue
				}
				d := x.Sub(s).L2()
				if d < 1e-15 {
					continue
				}
				r = r.Add(s.Sub(x).Scale(weightAt(weights, i) / d))
			}
			w := weightAt(weights, atSite)
			if r.L2() <= w+1e-12 {
				return x
			}
			// Nudge off the site along the pull direction.
			step := (r.L2() - w) / den
			next = x.Add(r.Scale(step / r.L2()))
		}
		if next.Sub(x).L2() <= tol {
			return next
		}
		x = next
	}
	return x
}

// RefineMedian polishes an approximate minimizer x of Σ wᵢ·‖x − sitesᵢ‖
// under n with at most maxIter safeguarded Newton steps. Weiszfeld's
// linear rate degrades without bound as the sites approach a line,
// while Newton's is quadratic near an optimum off every site. Only the
// Euclidean objective is smooth off the sites, so for the other norms
// x is returned as is (WeightedMedianL1 is exact already). A step is
// taken only if it lowers the objective, halving it up to 30 times;
// refinement stops early at a step that cannot, at a singular Hessian
// (x collinear with every site) and at x on a site, where the
// objective has no Hessian. A nil weights slice means unit weights.
func RefineMedian(n Norm, sites []Point, weights []float64, x Point, maxIter int) Point {
	if _, ok := n.(euclidean); !ok {
		return x
	}
	checkSites(sites, weights)
	for iter := 0; iter < maxIter; iter++ {
		var g Point
		var f, hxx, hxy, hyy float64
		for i, s := range sites {
			d := x.Sub(s)
			l := d.L2()
			if l == 0 {
				return x
			}
			w := weightAt(weights, i)
			e := d.Scale(1 / l)
			f += w * l
			g = g.Add(e.Scale(w))
			c := w / l
			hxx += c * (1 - e.X*e.X)
			hxy -= c * e.X * e.Y
			hyy += c * (1 - e.Y*e.Y)
		}
		det := hxx*hyy - hxy*hxy
		if !(det > 0) || math.IsInf(det, 0) {
			return x
		}
		step := Point{X: (hxy*g.Y - hyy*g.X) / det, Y: (hxy*g.X - hxx*g.Y) / det}
		moved := false
		for h := 0; h < 30 && !moved; h++ {
			if next := x.Add(step); SumOfDistances(Euclidean, next, sites, weights) < f {
				x, moved = next, true
			}
			step = step.Scale(0.5)
		}
		if !moved {
			return x
		}
	}
	return x
}

// weightedMedianL1 returns a minimizer of Σ wᵢ·‖x − sitesᵢ‖₁. Under the
// Manhattan norm the problem separates per axis, and each axis optimum is
// a weighted median of the site coordinates. A nil weights slice means
// unit weights; a nil sc means a fresh scratch.
func weightedMedianL1(sites []Point, weights []float64, sc *MedianScratch) Point {
	if sc == nil {
		sc = new(MedianScratch)
	}
	return Point{
		X: weightedMedian1D(sites, weights, sc, func(p Point) float64 { return p.X }),
		Y: weightedMedian1D(sites, weights, sc, func(p Point) float64 { return p.Y }),
	}
}

// weightedMedian1D returns a weighted median of the sites' coord values:
// a point m such that the total weight strictly below m and strictly
// above m are each at most half of the total weight. Coordinates and
// weights are copied into the scratch pair and kept sorted by insertion
// (placement calls this with k ≤ a dozen sites, where insertion sort
// beats the boxing of sort.Slice and allocates nothing once the scratch
// has grown).
func weightedMedian1D(sites []Point, weights []float64, sc *MedianScratch, coord func(Point) float64) float64 {
	vals := sc.vals[:0]
	ws := sc.ws[:0]
	var total float64
	for i, s := range sites {
		v := coord(s)
		w := weightAt(weights, i)
		total += w
		k := len(vals)
		vals = append(vals, v)
		ws = append(ws, w)
		for ; k > 0 && vals[k-1] > v; k-- {
			vals[k], vals[k-1] = vals[k-1], vals[k]
			ws[k], ws[k-1] = ws[k-1], ws[k]
		}
	}
	sc.vals, sc.ws = vals, ws
	half := total / 2
	var acc float64
	for i, w := range ws {
		acc += w
		if acc >= half {
			return vals[i]
		}
	}
	return vals[len(vals)-1]
}

// WeightedMedian minimizes Σ wᵢ·‖x − sitesᵢ‖ under an arbitrary norm. For
// the built-in Euclidean and Manhattan norms it dispatches to the
// specialized solvers; otherwise it runs a derivative-free coordinate
// descent with shrinking step sizes, which converges on these convex
// objectives.
func WeightedMedian(n Norm, sites []Point, weights []float64, opt MedianOptions) Point {
	checkSites(sites, weights)
	switch n.Name() {
	case "euclidean":
		return WeightedMedianL2(sites, weights, opt)
	case "manhattan":
		return weightedMedianL1(sites, weights, opt.Scratch)
	}
	return coordinateDescent(n, sites, weights, opt)
}

func coordinateDescent(n Norm, sites []Point, weights []float64, opt MedianOptions) Point {
	x := weightedCentroid(sites, weights)
	b := Bounds(sites)
	step := math.Max(b.Width(), b.Height())
	if step == 0 {
		return x
	}
	tol := stopTol(step)
	f := func(p Point) float64 { return SumOfDistances(n, p, sites, weights) }
	best := f(x)
	for iter := 0; iter < opt.maxIter()*4 && step > tol; iter++ {
		improved := false
		for _, d := range []Point{
			{step, 0}, {-step, 0}, {0, step}, {0, -step},
			{step, step}, {step, -step}, {-step, step}, {-step, -step},
		} {
			cand := x.Add(d)
			if v := f(cand); v < best {
				best, x = v, cand
				improved = true
			}
		}
		if !improved {
			step /= 2
		}
	}
	return x
}

func weightedCentroid(sites []Point, weights []float64) Point {
	var c Point
	var total float64
	for i, s := range sites {
		w := weightAt(weights, i)
		c = c.Add(s.Scale(w))
		total += w
	}
	if total == 0 {
		return Centroid(sites)
	}
	return c.Scale(1 / total)
}

func weightAt(weights []float64, i int) float64 {
	if weights == nil {
		return 1
	}
	return weights[i]
}

func checkSites(sites []Point, weights []float64) {
	if len(sites) == 0 {
		panic("geom: median of empty site set")
	}
	if weights != nil {
		if len(weights) != len(sites) {
			panic("geom: median weight/site length mismatch")
		}
		for _, w := range weights {
			if w < 0 || math.IsNaN(w) {
				panic("geom: median weight must be non-negative")
			}
		}
	}
}
