package steiner

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestSpanningTreeBasics(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1)}
	tree, err := SpanningTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Edges) != 2 {
		t.Fatalf("edges = %d, want 2", len(tree.Edges))
	}
	if math.Abs(tree.Length-2) > 1e-12 {
		t.Errorf("length = %v, want 2", tree.Length)
	}
	if _, err := SpanningTree(nil); err == nil {
		t.Error("empty input should fail")
	}
	single, err := SpanningTree(pts[:1])
	if err != nil || single.Length != 0 || len(single.Edges) != 0 {
		t.Errorf("single point tree wrong: %+v, %v", single, err)
	}
}

func TestSteinerImprovesClassicInstance(t *testing.T) {
	// Terminals (0,0), (2,0), (1,2): the RMST costs 2 + 3 = 5, but a
	// Steiner point at (1,0) connects everything with length 4.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(1, 2)}
	mst, err := SpanningTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mst.Length-5) > 1e-12 {
		t.Fatalf("RMST = %v, want 5", mst.Length)
	}
	st, err := SteinerTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Length-4) > 1e-12 {
		t.Errorf("Steiner length = %v, want 4", st.Length)
	}
	if len(st.Points) != 4 || st.Terminals != 3 {
		t.Errorf("expected one Steiner point: %+v", st.Points)
	}
	if !st.Points[3].Eq(geom.Pt(1, 0)) {
		t.Errorf("Steiner point = %v, want (1,0)", st.Points[3])
	}
}

func TestSteinerCross(t *testing.T) {
	// Four arms of a cross: RMST 3·2=... terminals (±1,0),(0,±1):
	// RMST = 2+2+2 = 6; a center Steiner point gives 4.
	pts := []geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0), geom.Pt(0, 1), geom.Pt(0, -1)}
	st, err := SteinerTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Length-4) > 1e-12 {
		t.Errorf("cross Steiner length = %v, want 4", st.Length)
	}
}

func TestHalfPerimeter(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(0, 4)}
	if got := HalfPerimeter(pts); got != 7 {
		t.Errorf("HPWL = %v, want 7", got)
	}
	if got := HalfPerimeter(nil); got != 0 {
		t.Errorf("empty HPWL = %v", got)
	}
}

// Property: HPWL ≤ Steiner ≤ RMST ≤ 1.5 · Steiner on random instances
// (the classical sandwich for rectilinear trees).
func TestSteinerSandwichProperty(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(6)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(r.Intn(20)), float64(r.Intn(20)))
		}
		mst, err := SpanningTree(pts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := SteinerTree(pts)
		if err != nil {
			t.Fatal(err)
		}
		hp := HalfPerimeter(pts)
		if st.Length > mst.Length+1e-9 {
			t.Fatalf("trial %d: Steiner %v worse than RMST %v", trial, st.Length, mst.Length)
		}
		if hp > st.Length+1e-9 {
			t.Fatalf("trial %d: HPWL %v exceeds Steiner %v — bound violated", trial, hp, st.Length)
		}
		if mst.Length > 1.5*st.Length+1e-9 {
			t.Fatalf("trial %d: RMST %v exceeds 1.5×Steiner %v", trial, mst.Length, st.Length)
		}
		// Tree shape: exactly |points|−1 edges.
		if len(st.Edges) != len(st.Points)-1 {
			t.Fatalf("trial %d: %d edges over %d points", trial, len(st.Edges), len(st.Points))
		}
	}
}

// Property: adding a terminal never shortens the Steiner tree.
func TestSteinerMonotoneInTerminals(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(4)
		pts := make([]geom.Point, n+1)
		for i := range pts {
			pts[i] = geom.Pt(float64(r.Intn(15)), float64(r.Intn(15)))
		}
		small, err := SteinerTree(pts[:n])
		if err != nil {
			t.Fatal(err)
		}
		big, err := SteinerTree(pts)
		if err != nil {
			t.Fatal(err)
		}
		if big.Length < small.Length-1e-9 {
			t.Fatalf("trial %d: more terminals, shorter tree: %v < %v", trial, big.Length, small.Length)
		}
	}
}

func BenchmarkSteinerTree8(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*10, r.Float64()*10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SteinerTree(pts); err != nil {
			b.Fatal(err)
		}
	}
}
