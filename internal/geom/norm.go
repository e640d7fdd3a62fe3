package geom

import (
	"fmt"
	"math"
)

// Norm is the generic geometric norm of Definition 2.1: the constraint
// graph measures the length of every arc (u, v) as ‖p(u) − p(v)‖ for a
// norm chosen by the application domain. The paper uses the Euclidean
// norm for the WAN example and the Manhattan norm for the on-chip one.
type Norm interface {
	// Distance returns ‖p − q‖.
	Distance(p, q Point) float64
	// Name returns a short stable identifier ("euclidean", "manhattan", ...).
	Name() string
}

type euclidean struct{}
type manhattan struct{}
type chebyshev struct{}

// Euclidean is the L2 norm, appropriate for free-space media such as the
// radio and optical links of the paper's WAN example.
var Euclidean Norm = euclidean{}

// Manhattan is the L1 norm, appropriate for on-chip rectilinear wiring
// as in the paper's MPEG-4 decoder example.
var Manhattan Norm = manhattan{}

// Chebyshev is the L∞ norm, provided for completeness (e.g. diagonal
// routing fabrics).
var Chebyshev Norm = chebyshev{}

func (euclidean) Distance(p, q Point) float64 { return p.Sub(q).L2() }
func (euclidean) Name() string                { return "euclidean" }

func (manhattan) Distance(p, q Point) float64 { return p.Sub(q).L1() }
func (manhattan) Name() string                { return "manhattan" }

func (chebyshev) Distance(p, q Point) float64 { return p.Sub(q).LInf() }
func (chebyshev) Name() string                { return "chebyshev" }

// NormByName returns the built-in norm with the given Name. It is the
// inverse of Norm.Name and is used when decoding serialized constraint
// graphs.
func NormByName(name string) (Norm, error) {
	switch name {
	case "euclidean":
		return Euclidean, nil
	case "manhattan":
		return Manhattan, nil
	case "chebyshev":
		return Chebyshev, nil
	default:
		return nil, fmt.Errorf("geom: unknown norm %q", name)
	}
}

// Dual returns the dual norm of n, ‖p‖* = max{⟨p, y⟩ : ‖y‖ ≤ 1}, as a
// Norm whose Distance(p, Point{}) is ‖p‖*: Euclidean for Euclidean,
// Chebyshev for Manhattan and Manhattan for Chebyshev. ok is false for
// a norm other than the three built-ins.
func Dual(n Norm) (dual Norm, ok bool) {
	switch n.(type) {
	case euclidean:
		return Euclidean, true
	case manhattan:
		return Chebyshev, true
	case chebyshev:
		return Manhattan, true
	}
	return nil, false
}

// Subgradient returns a subgradient g of n's length at y: ⟨g, y⟩ = ‖y‖
// and ‖g‖* ≤ 1, with g = 0 at y = 0. n must be one of the three
// built-in norms (those Dual knows); any other is a programming error
// and panics.
func Subgradient(n Norm, y Point) Point {
	switch n.(type) {
	case euclidean:
		if l := y.L2(); l > 0 {
			return y.Scale(1 / l)
		}
		return Point{}
	case manhattan:
		return Point{sign(y.X), sign(y.Y)}
	case chebyshev:
		if math.Abs(y.X) >= math.Abs(y.Y) {
			return Point{X: sign(y.X)}
		}
		return Point{Y: sign(y.Y)}
	}
	panic(fmt.Sprintf("geom: no subgradient for norm %q", n.Name()))
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// PathLength returns the length of the polyline through pts under n.
// A polyline with fewer than two points has length zero.
func PathLength(n Norm, pts []Point) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += n.Distance(pts[i-1], pts[i])
	}
	return total
}

// SumOfDistances returns Σᵢ wᵢ·‖x − sitesᵢ‖ under n. Weights and sites
// must have equal length; a nil weights slice means unit weights.
func SumOfDistances(n Norm, x Point, sites []Point, weights []float64) float64 {
	if weights != nil && len(weights) != len(sites) {
		panic("geom: SumOfDistances weight/site length mismatch")
	}
	var total float64
	for i, s := range sites {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		total += w * n.Distance(x, s)
	}
	return total
}
