package geom

import (
	"math"
	"math/big"
	"math/rand"
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

// exactL2 returns √(x² + y²) correctly rounded to float64: the sum is
// exact at 256 bits for components at most 2^60 apart, and its 256-bit
// root cannot straddle a rounding midpoint it is not on.
func exactL2(x, y float64) float64 {
	sq := func(v float64) *big.Float {
		f := new(big.Float).SetPrec(256).SetFloat64(v)
		return f.Mul(f, f)
	}
	s := sq(x)
	s.Add(s, sq(y))
	l, _ := new(big.Float).SetPrec(256).Sqrt(s).Float64()
	return l
}

// ulps returns how many float64 steps apart two non-negative lengths are.
func ulps(a, b float64) int64 {
	d := int64(math.Float64bits(a)) - int64(math.Float64bits(b))
	if d < 0 {
		return -d
	}
	return d
}

// TestL2WithinOneUlp holds L2 to 1 ulp of the correctly rounded length
// on seeded vectors whose components span 2^±450, up to 2^±30 apart.
// math.Hypot is 2 ulps off on 656 of them.
func TestL2WithinOneUlp(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	component := func(exp int) float64 {
		v := math.Ldexp(1+r.Float64(), exp)
		if r.Intn(2) == 0 {
			return -v
		}
		return v
	}
	const n = 100_000
	exact, bad := 0, 0
	for i := 0; i < n; i++ {
		e := r.Intn(901) - 450
		x, y := component(e), component(e+r.Intn(61)-30)
		got, want := Pt(x, y).L2(), exactL2(x, y)
		switch d := ulps(got, want); {
		case d == 0:
			exact++
		case d > 1:
			if bad++; bad <= 5 {
				t.Errorf("L2(%g, %g) = %v, %d ulps from %v", x, y, got, d, want)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d lengths more than 1 ulp off", bad, n)
	}
	t.Logf("%d of %d lengths correctly rounded", exact, n)
}

// TestL2FallsBackToHypot checks the guard: where the sum of squares
// overflows, underflows or is not a number, L2 returns math.Hypot's
// bits, and just inside either threshold it is the plain square root.
func TestL2FallsBackToHypot(t *testing.T) {
	const hi, lo = 0x1p484, 0x1p-484 // x² is the guard's 2^968, 2^-968
	far := []Point{
		Pt(1e200, 1e200), Pt(1e-200, 3e-200), Pt(5e-324, 0), Pt(0, 0),
		Pt(math.Inf(1), math.NaN()), Pt(math.Inf(-1), math.NaN()), Pt(math.NaN(), 1),
		Pt(hi, 0), Pt(0, -hi), Pt(hi, 1), Pt(math.Nextafter(hi, math.Inf(1)), 0),
		Pt(lo, 0), Pt(0, -lo), Pt(math.Nextafter(lo, 0), 0), Pt(lo, 0x1p-540),
	}
	for _, p := range far {
		if got, want := p.L2(), math.Hypot(p.X, p.Y); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("L2%v = %v, want math.Hypot's %v", p, got, want)
		}
	}
	near := []Point{
		Pt(math.Nextafter(hi, 0), 0), Pt(0, -math.Nextafter(hi, 0)), Pt(0x1p483, 0x1p483),
		Pt(math.Nextafter(lo, 1), 0), Pt(0, -math.Nextafter(lo, 1)), Pt(0x1p-484, 0x1p-484),
	}
	for _, p := range near {
		got := p.L2()
		if want := math.Sqrt(p.X*p.X + p.Y*p.Y); got != want {
			t.Errorf("L2%v = %v, want the square root %v", p, got, want)
		}
		if d := ulps(got, exactL2(p.X, p.Y)); d > 1 {
			t.Errorf("L2%v = %v, %d ulps off", p, got, d)
		}
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
