package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestWeightedMedianL2SingleSite(t *testing.T) {
	got := WeightedMedianL2([]Point{Pt(3, 7)}, nil, MedianOptions{})
	if !got.Eq(Pt(3, 7)) {
		t.Errorf("single-site median = %v, want (3, 7)", got)
	}
}

func TestWeightedMedianL2Collinear(t *testing.T) {
	// For three unit-weight collinear sites the median coincides with the
	// middle site.
	sites := []Point{Pt(0, 0), Pt(5, 0), Pt(10, 0)}
	got := WeightedMedianL2(sites, nil, MedianOptions{})
	if !got.AlmostEq(Pt(5, 0), 1e-6) {
		t.Errorf("collinear median = %v, want (5, 0)", got)
	}
}

func TestWeightedMedianL2DominantWeight(t *testing.T) {
	// When one site's weight exceeds the total of the rest, it is optimal.
	sites := []Point{Pt(0, 0), Pt(10, 0), Pt(0, 10)}
	weights := []float64{10, 1, 1}
	got := WeightedMedianL2(sites, weights, MedianOptions{})
	if !got.AlmostEq(Pt(0, 0), 1e-6) {
		t.Errorf("dominant-weight median = %v, want origin", got)
	}
}

func TestWeightedMedianL2EquilateralFermat(t *testing.T) {
	// The Fermat point of an equilateral triangle is its centroid.
	h := math.Sqrt(3) / 2
	sites := []Point{Pt(0, 0), Pt(1, 0), Pt(0.5, h)}
	got := WeightedMedianL2(sites, nil, MedianOptions{})
	want := Centroid(sites)
	if !got.AlmostEq(want, 1e-6) {
		t.Errorf("Fermat point = %v, want %v", got, want)
	}
}

func TestWeightedMedianL1Exact(t *testing.T) {
	sites := []Point{Pt(0, 0), Pt(2, 1), Pt(10, 8)}
	got := WeightedMedian(Manhattan, sites, nil, MedianOptions{})
	// Per-axis median of {0,2,10} and {0,1,8}.
	if !got.Eq(Pt(2, 1)) {
		t.Errorf("L1 median = %v, want (2, 1)", got)
	}
}

func TestWeightedMedianL1Weighted(t *testing.T) {
	sites := []Point{Pt(0, 0), Pt(10, 10)}
	// The heavy site wins both axes.
	got := WeightedMedian(Manhattan, sites, []float64{1, 3}, MedianOptions{})
	if !got.Eq(Pt(10, 10)) {
		t.Errorf("weighted L1 median = %v, want (10, 10)", got)
	}
}

func TestWeightedMedianDispatch(t *testing.T) {
	sites := []Point{Pt(0, 0), Pt(4, 0), Pt(8, 0)}
	for _, n := range []Norm{Euclidean, Manhattan, Chebyshev} {
		got := WeightedMedian(n, sites, nil, MedianOptions{})
		if !got.AlmostEq(Pt(4, 0), 1e-4) {
			t.Errorf("%s median = %v, want (4, 0)", n.Name(), got)
		}
	}
}

func TestMedianPanics(t *testing.T) {
	cases := []func(){
		func() { WeightedMedianL2(nil, nil, MedianOptions{}) },
		func() { WeightedMedian(Manhattan, []Point{Pt(0, 0)}, []float64{1, 2}, MedianOptions{}) },
		func() { WeightedMedianL2([]Point{Pt(0, 0)}, []float64{-1}, MedianOptions{}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: the computed median is no worse than 1000 random candidate
// positions, for each built-in norm. This is the defining property of a
// global optimum of a convex objective sampled at random points.
func TestMedianOptimalityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		nSites := 2 + r.Intn(6)
		sites := make([]Point, nSites)
		weights := make([]float64, nSites)
		for i := range sites {
			sites[i] = Pt(r.Float64()*100, r.Float64()*100)
			weights[i] = 0.5 + r.Float64()*4
		}
		for _, n := range []Norm{Euclidean, Manhattan, Chebyshev} {
			m := WeightedMedian(n, sites, weights, MedianOptions{})
			best := SumOfDistances(n, m, sites, weights)
			b := Bounds(sites).Expand(10)
			for k := 0; k < 1000; k++ {
				c := RandomInBox(r, b)
				if v := SumOfDistances(n, c, sites, weights); v < best-1e-5*best-1e-9 {
					t.Fatalf("trial %d norm %s: random point %v beats median %v (%.9f < %.9f)",
						trial, n.Name(), c, m, v, best)
				}
			}
		}
	}
}

// TestRefineMedianConvergesWhereWeiszfeldCrawls: six sites in two
// clusters 120 apart, nearly on a line, put the Euclidean median where
// Weiszfeld's rate is poor: stopped by its movement tolerance or after
// 1,000 iterations, it still leaves a pull (the objective's gradient
// norm) above 1e-4. Eight Newton steps from a
// 10-iteration Weiszfeld start must bring it below 1e-9 without ever
// raising the objective, and must leave the other norms' medians and
// a point on a site untouched.
func TestRefineMedianConvergesWhereWeiszfeldCrawls(t *testing.T) {
	sites := []Point{Pt(0, 0), Pt(34.4, -115.5), Pt(40.4, -113.2), Pt(38.7, -119.2), Pt(6.3, 23.6), Pt(3.1, 24.4)}
	weights := []float64{2, 2, 2, 2, 2, 2}
	pull := func(x Point) float64 {
		var g Point
		for i, s := range sites {
			g = g.Add(x.Sub(s).Scale(weights[i] / x.Sub(s).L2()))
		}
		return g.L2()
	}
	f := func(x Point) float64 { return SumOfDistances(Euclidean, x, sites, weights) }
	if slow := WeightedMedianL2(sites, weights, MedianOptions{MaxIter: 1000}); pull(slow) < 1e-4 {
		t.Fatalf("Weiszfeld reaches pull %.3g; the instance no longer shows the slow case", pull(slow))
	}
	start := WeightedMedianL2(sites, weights, MedianOptions{MaxIter: 10})
	got := RefineMedian(Euclidean, sites, weights, start, 8)
	if p := pull(got); p > 1e-9 {
		t.Errorf("refined median %v has pull %.3g, want < 1e-9 (start %.3g)", got, p, pull(start))
	}
	if f(got) > f(start) {
		t.Errorf("refinement raised the objective: %.12g > %.12g", f(got), f(start))
	}
	for _, n := range []Norm{Manhattan, Chebyshev} {
		if got := RefineMedian(n, sites, weights, start, 8); !got.Eq(start) {
			t.Errorf("%s: RefineMedian moved %v to %v", n.Name(), start, got)
		}
	}
	if got := RefineMedian(Euclidean, sites, weights, sites[1], 8); !got.Eq(sites[1]) {
		t.Errorf("RefineMedian moved off site %v to %v", sites[1], got)
	}
}

// Property: Weiszfeld result is invariant (within tolerance) under
// translation of all sites.
func TestMedianTranslationInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		nSites := 3 + r.Intn(4)
		sites := make([]Point, nSites)
		for i := range sites {
			sites[i] = Pt(r.Float64()*10, r.Float64()*10)
		}
		shift := Pt(100+r.Float64()*50, -30+r.Float64()*20)
		shifted := make([]Point, nSites)
		for i, s := range sites {
			shifted[i] = s.Add(shift)
		}
		m1 := WeightedMedianL2(sites, nil, MedianOptions{})
		m2 := WeightedMedianL2(shifted, nil, MedianOptions{})
		if !m2.AlmostEq(m1.Add(shift), 1e-4) {
			t.Fatalf("trial %d: translation broke median: %v vs %v+%v", trial, m2, m1, shift)
		}
	}
}

func TestRandomInBoxStaysInside(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	b := BoundingBox{Min: Pt(-5, 3), Max: Pt(2, 9)}
	for i := 0; i < 500; i++ {
		if p := RandomInBox(r, b); !b.Contains(p) {
			t.Fatalf("point %v escaped box %+v", p, b)
		}
	}
}
