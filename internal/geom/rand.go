package geom

import "math/rand"

// Deterministic random point generation for the workload generators and
// the property-based tests: an explicit *rand.Rand keeps experiments
// reproducible from a seed.

// RandomInBox returns a point uniformly distributed in b.
func RandomInBox(r *rand.Rand, b BoundingBox) Point {
	return Point{
		X: b.Min.X + r.Float64()*b.Width(),
		Y: b.Min.Y + r.Float64()*b.Height(),
	}
}
