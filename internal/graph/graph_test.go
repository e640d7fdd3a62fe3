package graph

import "testing"

func buildDiamond(t *testing.T) (*Digraph, []ArcID) {
	// 0 -> 1 -> 3, 0 -> 2 -> 3
	t.Helper()
	g := NewDigraph(4)
	ids := []ArcID{
		g.MustAddArc(0, 1),
		g.MustAddArc(1, 3),
		g.MustAddArc(0, 2),
		g.MustAddArc(2, 3),
	}
	return g, ids
}

func TestAddVertexAndArc(t *testing.T) {
	g := &Digraph{}
	v0 := g.AddVertex()
	v1 := g.AddVertex()
	if v0 != 0 || v1 != 1 {
		t.Fatalf("vertex IDs = %d, %d; want 0, 1", v0, v1)
	}
	id, err := g.AddArc(v0, v1)
	if err != nil {
		t.Fatalf("AddArc: %v", err)
	}
	if a := g.Arc(id); a.From != v0 || a.To != v1 {
		t.Errorf("Arc = %+v", a)
	}
	if g.NumVertices() != 2 || g.NumArcs() != 1 {
		t.Errorf("counts = %d vertices, %d arcs", g.NumVertices(), g.NumArcs())
	}
}

func TestAddArcErrors(t *testing.T) {
	g := NewDigraph(2)
	if _, err := g.AddArc(0, 0); err == nil {
		t.Error("self-loop should be rejected")
	}
	if _, err := g.AddArc(0, 5); err == nil {
		t.Error("out-of-range target should be rejected")
	}
	if _, err := g.AddArc(-1, 0); err == nil {
		t.Error("negative source should be rejected")
	}
}

func TestParallelArcs(t *testing.T) {
	g := NewDigraph(2)
	a := g.MustAddArc(0, 1)
	b := g.MustAddArc(0, 1)
	if a == b {
		t.Error("parallel arcs must get distinct IDs")
	}
	if out, in := g.Out(0), g.In(1); len(out) != 2 || len(in) != 2 || out[0] != a || out[1] != b {
		t.Errorf("Out(0) = %v, In(1) = %v; want both parallel arcs", out, in)
	}
	if len(g.Out(1)) != 0 {
		t.Error("reverse direction should have no arcs")
	}
}

func TestDegrees(t *testing.T) {
	g, _ := buildDiamond(t)
	if len(g.Out(0)) != 2 || len(g.In(0)) != 0 {
		t.Errorf("vertex 0 degrees: out=%d in=%d", len(g.Out(0)), len(g.In(0)))
	}
	if len(g.Out(3)) != 0 || len(g.In(3)) != 2 {
		t.Errorf("vertex 3 degrees: out=%d in=%d", len(g.Out(3)), len(g.In(3)))
	}
	if d := len(g.Out(1)) + len(g.In(1)); d != 2 {
		t.Errorf("vertex 1 total degree = %d, want 2", d)
	}
}
