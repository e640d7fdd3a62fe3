// Package geom provides the small geometric kernel used by the
// constraint-driven communication synthesis (CDCS) flow: 2-D points,
// the norms used to measure channel lengths (Euclidean, Manhattan,
// Chebyshev), bounding boxes, and the facility-location style solvers
// (geometric median, weighted 1-median) that the candidate placement
// optimizer builds on.
//
// All distances are plain float64 in whatever unit the caller adopts
// (kilometers for the WAN examples, millimeters for the on-chip ones);
// the package is unit-agnostic.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the plane. The constraint-graph model assigns one
// to every port vertex; the placement optimizer assigns one to every
// communication vertex it inserts.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns the point scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q seen as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// L2 returns the Euclidean length of p seen as a vector: the square
// root of x² + y² where that sum can neither overflow nor lose
// precision to underflow, within 1 ulp of the exact length, and
// math.Hypot's bits elsewhere (huge, tiny, zero, infinite or NaN
// components), where its scaling is needed. Hypot divides on every
// call, too slow for the pricing loops that call L2. The conversions
// round each square, so no platform fuses the sum into a multiply-add
// and every platform gets the same bits.
func (p Point) L2() float64 {
	if s := float64(p.X*p.X) + float64(p.Y*p.Y); 0x1p-968 < s && s < 0x1p968 {
		return math.Sqrt(s)
	}
	return math.Hypot(p.X, p.Y)
}

// L1 returns the Manhattan length of p seen as a vector.
func (p Point) L1() float64 { return math.Abs(p.X) + math.Abs(p.Y) }

// LInf returns the Chebyshev length of p seen as a vector.
func (p Point) LInf() float64 { return math.Max(math.Abs(p.X), math.Abs(p.Y)) }

// Lerp returns the point (1-t)*p + t*q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Eq reports whether p and q coincide exactly.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// AlmostEq reports whether p and q coincide within tol in each coordinate.
func (p Point) AlmostEq(q Point, tol float64) bool {
	return math.Abs(p.X-q.X) <= tol && math.Abs(p.Y-q.Y) <= tol
}

// String renders the point as "(x, y)" with three decimals.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Centroid returns the arithmetic mean of the points. It panics if pts is
// empty, because an empty centroid has no meaningful value.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of empty point set")
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	return c.Scale(1 / float64(len(pts)))
}

// BoundingBox is an axis-aligned rectangle.
type BoundingBox struct {
	Min, Max Point
}

// Bounds returns the tight axis-aligned bounding box of the points.
// It panics if pts is empty.
func Bounds(pts []Point) BoundingBox {
	if len(pts) == 0 {
		panic("geom: Bounds of empty point set")
	}
	b := BoundingBox{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		b.Min.X = math.Min(b.Min.X, p.X)
		b.Min.Y = math.Min(b.Min.Y, p.Y)
		b.Max.X = math.Max(b.Max.X, p.X)
		b.Max.Y = math.Max(b.Max.Y, p.Y)
	}
	return b
}

// Width returns the horizontal extent of the box.
func (b BoundingBox) Width() float64 { return b.Max.X - b.Min.X }

// Height returns the vertical extent of the box.
func (b BoundingBox) Height() float64 { return b.Max.Y - b.Min.Y }

// Expand returns the box grown by margin on every side.
func (b BoundingBox) Expand(margin float64) BoundingBox {
	return BoundingBox{
		Min: Point{b.Min.X - margin, b.Min.Y - margin},
		Max: Point{b.Max.X + margin, b.Max.Y + margin},
	}
}
