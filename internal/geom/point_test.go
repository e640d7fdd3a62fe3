package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -4)
	if got := p.Add(q); !got.Eq(Pt(4, -2)) {
		t.Errorf("Add = %v, want (4, -2)", got)
	}
	if got := p.Sub(q); !got.Eq(Pt(-2, 6)) {
		t.Errorf("Sub = %v, want (-2, 6)", got)
	}
	if got := p.Scale(2); !got.Eq(Pt(2, 4)) {
		t.Errorf("Scale = %v, want (2, 4)", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v, want -5", got)
	}
}

func TestVectorLengths(t *testing.T) {
	v := Pt(3, -4)
	if got := v.L2(); got != 5 {
		t.Errorf("L2 = %v, want 5", got)
	}
	if got := v.L1(); got != 7 {
		t.Errorf("L1 = %v, want 7", got)
	}
	if got := v.LInf(); got != 4 {
		t.Errorf("LInf = %v, want 4", got)
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); !got.Eq(p) {
		t.Errorf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); !got.Eq(q) {
		t.Errorf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Lerp(q, 0.5); !got.Eq(Pt(5, 10)) {
		t.Errorf("Lerp(0.5) = %v, want (5, 10)", got)
	}
}

func TestAlmostEq(t *testing.T) {
	p := Pt(1, 1)
	if !p.AlmostEq(Pt(1.0005, 0.9995), 1e-3) {
		t.Error("AlmostEq should accept within tolerance")
	}
	if p.AlmostEq(Pt(1.01, 1), 1e-3) {
		t.Error("AlmostEq should reject outside tolerance")
	}
}

func TestIsFinite(t *testing.T) {
	if !Pt(1, 2).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	if Pt(math.NaN(), 0).IsFinite() {
		t.Error("NaN point reported finite")
	}
	if Pt(0, math.Inf(1)).IsFinite() {
		t.Error("Inf point reported finite")
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if got := Centroid(pts); !got.Eq(Pt(1, 1)) {
		t.Errorf("Centroid = %v, want (1, 1)", got)
	}
}

func TestCentroidEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Centroid(nil) should panic")
		}
	}()
	Centroid(nil)
}

func TestBounds(t *testing.T) {
	pts := []Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)}
	b := Bounds(pts)
	if !b.Min.Eq(Pt(-2, -1)) || !b.Max.Eq(Pt(4, 5)) {
		t.Errorf("Bounds = %+v", b)
	}
	if b.Width() != 6 || b.Height() != 6 {
		t.Errorf("Width/Height = %v/%v, want 6/6", b.Width(), b.Height())
	}
	if !b.Contains(Pt(0, 0)) {
		t.Error("box should contain origin")
	}
	if b.Contains(Pt(10, 0)) {
		t.Error("box should not contain (10, 0)")
	}
	e := b.Expand(1)
	if !e.Min.Eq(Pt(-3, -2)) || !e.Max.Eq(Pt(5, 6)) {
		t.Errorf("Expand = %+v", e)
	}
}

func TestBoundsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bounds(nil) should panic")
		}
	}()
	Bounds(nil)
}

// Property: Add and Sub are inverse operations.
func TestAddSubInverseProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyNaNInf(ax, ay, bx, by) {
			return true
		}
		p, q := Pt(ax, ay), Pt(bx, by)
		r := p.Add(q).Sub(q)
		return r.AlmostEq(p, 1e-6*(1+math.Abs(ax)+math.Abs(bx)+math.Abs(ay)+math.Abs(by)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the bounding box contains all of its defining points.
func TestBoundsContainsAllProperty(t *testing.T) {
	f := func(coords []float64) bool {
		if len(coords) < 2 {
			return true
		}
		var pts []Point
		for i := 0; i+1 < len(coords); i += 2 {
			if anyNaNInf(coords[i], coords[i+1]) {
				return true
			}
			pts = append(pts, Pt(coords[i], coords[i+1]))
		}
		b := Bounds(pts)
		for _, p := range pts {
			if !b.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyNaNInf(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}
