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

func TestClone(t *testing.T) {
	g, _ := buildDiamond(t)
	c := g.Clone()
	c.MustAddArc(3, 0)
	if g.NumArcs() == c.NumArcs() {
		t.Error("mutating clone affected original arc count")
	}
	if g.NumArcs() != 4 || c.NumArcs() != 5 {
		t.Errorf("arc counts: original=%d clone=%d", g.NumArcs(), c.NumArcs())
	}
}

func TestBFSOrder(t *testing.T) {
	g, _ := buildDiamond(t)
	var order []VertexID
	g.BFS(0, func(v VertexID) bool {
		order = append(order, v)
		return true
	})
	if len(order) != 4 || order[0] != 0 || order[3] != 3 {
		t.Errorf("BFS order = %v", order)
	}
}

func TestDFSVisitsAllReachable(t *testing.T) {
	g, _ := buildDiamond(t)
	g.AddVertex() // isolated vertex 4
	count := 0
	g.DFS(0, func(VertexID) bool { count++; return true })
	if count != 4 {
		t.Errorf("DFS visited %d vertices, want 4", count)
	}
}

func TestTraversalEarlyStop(t *testing.T) {
	g, _ := buildDiamond(t)
	count := 0
	g.BFS(0, func(VertexID) bool { count++; return false })
	if count != 1 {
		t.Errorf("BFS early stop visited %d, want 1", count)
	}
	count = 0
	g.DFS(0, func(VertexID) bool { count++; return false })
	if count != 1 {
		t.Errorf("DFS early stop visited %d, want 1", count)
	}
}

func TestReachable(t *testing.T) {
	g := NewDigraph(3)
	g.MustAddArc(0, 1)
	reach := g.Reachable(0)
	if !reach[0] || !reach[1] || reach[2] {
		t.Errorf("Reachable = %v", reach)
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := NewDigraph(5)
	g.MustAddArc(0, 1)
	g.MustAddArc(2, 1) // 0,1,2 weakly connected
	g.MustAddArc(3, 4) // 3,4 separate
	comp, count := g.WeaklyConnectedComponents()
	if count != 2 {
		t.Fatalf("component count = %d, want 2", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("0,1,2 should share a component: %v", comp)
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Errorf("3,4 should share a separate component: %v", comp)
	}
}

func TestTopoSort(t *testing.T) {
	g, _ := buildDiamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := make(map[VertexID]int)
	for i, v := range order {
		pos[v] = i
	}
	for id := 0; id < g.NumArcs(); id++ {
		if a := g.Arc(ArcID(id)); pos[a.From] >= pos[a.To] {
			t.Errorf("arc %d→%d violates topological order %v", a.From, a.To, order)
		}
	}
	if g.HasCycle() {
		t.Error("diamond reported cyclic")
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := NewDigraph(2)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 0)
	if _, err := g.TopoSort(); err == nil {
		t.Error("cycle should make TopoSort fail")
	}
	if !g.HasCycle() {
		t.Error("HasCycle should report true")
	}
}
