package geom

import (
	"math"
	"math/rand"
)

// Helpers only geom's tests use.

// Contains reports whether p lies inside the box (inclusive).
func (b BoundingBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Snap rounds v to the given number of decimal places. The paper's tables
// publish distances rounded to two decimals; Snap(v, 2) reproduces that
// presentation.
func Snap(v float64, decimals int) float64 {
	scale := math.Pow(10, float64(decimals))
	return math.Round(v*scale) / scale
}

// RandomCluster returns n points normally distributed around center with
// the given standard deviation per axis.
func RandomCluster(r *rand.Rand, center Point, stddev float64, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: center.X + r.NormFloat64()*stddev,
			Y: center.Y + r.NormFloat64()*stddev,
		}
	}
	return pts
}

// RandomClusters places k cluster centers uniformly in b and draws
// perCluster points around each with the given spread, modelling the
// "groups of nearby nodes separated by long hauls" structure of the
// paper's WAN example.
func RandomClusters(r *rand.Rand, b BoundingBox, k, perCluster int, spread float64) [][]Point {
	clusters := make([][]Point, k)
	for i := range clusters {
		center := RandomInBox(r, b)
		clusters[i] = RandomCluster(r, center, spread, perCluster)
	}
	return clusters
}
