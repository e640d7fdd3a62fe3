package geom

// Helpers only geom's tests use.

// Contains reports whether p lies inside the box (inclusive).
func (b BoundingBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}
