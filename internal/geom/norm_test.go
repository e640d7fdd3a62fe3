package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormDistances(t *testing.T) {
	p, q := Pt(0, 0), Pt(3, 4)
	cases := []struct {
		norm Norm
		want float64
	}{
		{Euclidean, 5},
		{Manhattan, 7},
		{Chebyshev, 4},
	}
	for _, c := range cases {
		if got := c.norm.Distance(p, q); got != c.want {
			t.Errorf("%s.Distance = %v, want %v", c.norm.Name(), got, c.want)
		}
	}
}

func TestNormByName(t *testing.T) {
	for _, n := range []Norm{Euclidean, Manhattan, Chebyshev} {
		got, err := NormByName(n.Name())
		if err != nil {
			t.Fatalf("NormByName(%q): %v", n.Name(), err)
		}
		if got.Name() != n.Name() {
			t.Errorf("NormByName(%q).Name = %q", n.Name(), got.Name())
		}
	}
	if _, err := NormByName("taxicab"); err == nil {
		t.Error("NormByName should reject unknown names")
	}
}

func TestPathLength(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(3, 4), Pt(3, 8)}
	if got := PathLength(Euclidean, pts); got != 9 {
		t.Errorf("PathLength = %v, want 9", got)
	}
	if got := PathLength(Euclidean, pts[:1]); got != 0 {
		t.Errorf("single-point PathLength = %v, want 0", got)
	}
	if got := PathLength(Euclidean, nil); got != 0 {
		t.Errorf("empty PathLength = %v, want 0", got)
	}
}

func TestSumOfDistances(t *testing.T) {
	sites := []Point{Pt(1, 0), Pt(-1, 0)}
	if got := SumOfDistances(Euclidean, Pt(0, 0), sites, nil); got != 2 {
		t.Errorf("unit-weight sum = %v, want 2", got)
	}
	if got := SumOfDistances(Euclidean, Pt(0, 0), sites, []float64{2, 3}); got != 5 {
		t.Errorf("weighted sum = %v, want 5", got)
	}
}

func TestSumOfDistancesMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	SumOfDistances(Euclidean, Pt(0, 0), []Point{Pt(1, 1)}, []float64{1, 2})
}

// normAxioms checks symmetry, identity and the triangle inequality for a
// norm-induced metric on bounded random points.
func normAxioms(t *testing.T, n Norm) {
	t.Helper()
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		p := Pt(clamp(ax), clamp(ay))
		q := Pt(clamp(bx), clamp(by))
		r := Pt(clamp(cx), clamp(cy))
		dpq := n.Distance(p, q)
		if dpq < 0 {
			return false
		}
		if n.Distance(p, p) != 0 {
			return false
		}
		if math.Abs(dpq-n.Distance(q, p)) > 1e-9 {
			return false
		}
		// Triangle inequality, with slack for float rounding.
		return n.Distance(p, r)+n.Distance(r, q)-n.Distance(p, q) >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("%s norm axioms: %v", n.Name(), err)
	}
}

func TestNormAxiomsProperty(t *testing.T) {
	for _, n := range []Norm{Euclidean, Manhattan, Chebyshev} {
		normAxioms(t, n)
	}
}

// Property: L∞ ≤ L2 ≤ L1 for every displacement.
func TestNormOrderingProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p := Pt(clamp(ax), clamp(ay))
		q := Pt(clamp(bx), clamp(by))
		linf := Chebyshev.Distance(p, q)
		l2 := Euclidean.Distance(p, q)
		l1 := Manhattan.Distance(p, q)
		return linf <= l2+1e-9 && l2 <= l1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clamp maps arbitrary float64 quick-check inputs into a bounded range so
// the tests exercise realistic coordinates rather than overflow behavior.
func clamp(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return math.Mod(v, 1e6)
}
