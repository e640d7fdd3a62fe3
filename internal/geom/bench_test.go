package geom

import (
	"math/rand"
	"testing"
)

func benchSites(n int) ([]Point, []float64) {
	r := rand.New(rand.NewSource(9))
	sites := make([]Point, n)
	weights := make([]float64, n)
	for i := range sites {
		sites[i] = Pt(r.Float64()*100, r.Float64()*100)
		weights[i] = 0.5 + r.Float64()*4
	}
	return sites, weights
}

func BenchmarkWeightedMedianL2(b *testing.B) {
	sites, weights := benchSites(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WeightedMedianL2(sites, weights, MedianOptions{})
	}
}

func BenchmarkWeightedMedianL1(b *testing.B) {
	sites, weights := benchSites(16)
	b.ReportAllocs()
	opt := MedianOptions{Scratch: new(MedianScratch)}
	for i := 0; i < b.N; i++ {
		WeightedMedian(Manhattan, sites, weights, opt)
	}
}

func BenchmarkCoordinateDescentChebyshev(b *testing.B) {
	sites, weights := benchSites(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WeightedMedian(Chebyshev, sites, weights, MedianOptions{})
	}
}

func BenchmarkNormDistance(b *testing.B) {
	p, q := Pt(1.5, -2.5), Pt(100.25, 42.125)
	for _, n := range []Norm{Euclidean, Manhattan, Chebyshev} {
		b.Run(n.Name(), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += n.Distance(p, q)
			}
			_ = sink
		})
	}
}
