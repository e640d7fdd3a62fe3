package graph

import (
	"math"
	"math/rand"
	"testing"
)

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

func TestShortestPath(t *testing.T) {
	g := NewDigraph(4)
	a01 := g.MustAddArc(0, 1)
	a13 := g.MustAddArc(1, 3)
	a03 := g.MustAddArc(0, 3)
	weights := map[ArcID]float64{a01: 1, a13: 1, a03: 5}
	w := func(id ArcID) float64 { return weights[id] }

	p, cost, ok := g.ShortestPath(0, 3, w)
	if !ok {
		t.Fatal("path should exist")
	}
	if cost != 2 {
		t.Errorf("cost = %v, want 2", cost)
	}
	if err := p.Validate(g); err != nil {
		t.Errorf("returned path invalid: %v", err)
	}
	if p.Len() != 2 || p.Source() != 0 || p.Target() != 3 {
		t.Errorf("path = %v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewDigraph(3)
	g.MustAddArc(0, 1)
	if _, _, ok := g.ShortestPath(0, 2, func(ArcID) float64 { return 1 }); ok {
		t.Error("vertex 2 should be unreachable")
	}
}

func TestShortestPathInfiniteWeightMasks(t *testing.T) {
	g := NewDigraph(3)
	blocked := g.MustAddArc(0, 2)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	w := func(id ArcID) float64 {
		if id == blocked {
			return inf()
		}
		return 1
	}
	p, cost, ok := g.ShortestPath(0, 2, w)
	if !ok || cost != 2 || p.Len() != 2 {
		t.Errorf("masked path = %v cost=%v ok=%v; want 2-arc detour", p, cost, ok)
	}
}

func TestShortestPathNegativePanics(t *testing.T) {
	g := NewDigraph(2)
	g.MustAddArc(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("negative weight should panic")
		}
	}()
	g.ShortestPath(0, 1, func(ArcID) float64 { return -1 })
}

func TestDistances(t *testing.T) {
	g := NewDigraph(3)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	d := g.Distances(0, func(ArcID) float64 { return 2 })
	if d[0] != 0 || d[1] != 2 || d[2] != 4 {
		t.Errorf("Distances = %v", d)
	}
}

// Property-style test: Dijkstra distance matches BFS hop count on random
// graphs when all weights are 1.
func TestDijkstraMatchesBFSHops(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(15)
		g := NewDigraph(n)
		for e := 0; e < n*2; e++ {
			u := VertexID(r.Intn(n))
			v := VertexID(r.Intn(n))
			if u != v {
				g.MustAddArc(u, v)
			}
		}
		src := VertexID(r.Intn(n))
		dist := g.Distances(src, func(ArcID) float64 { return 1 })
		// BFS hop counts.
		hops := make([]int, n)
		for i := range hops {
			hops[i] = -1
		}
		hops[src] = 0
		queue := []VertexID{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, id := range g.Out(v) {
				w := g.Arc(id).To
				if hops[w] < 0 {
					hops[w] = hops[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for v := 0; v < n; v++ {
			if hops[v] < 0 {
				if !isInf(dist[v]) {
					t.Fatalf("trial %d: vertex %d unreachable by BFS but dist=%v", trial, v, dist[v])
				}
				continue
			}
			if dist[v] != float64(hops[v]) {
				t.Fatalf("trial %d: vertex %d dist=%v hops=%d", trial, v, dist[v], hops[v])
			}
		}
	}
}

func inf() float64 { return math.Inf(1) }

func isInf(v float64) bool { return math.IsInf(v, 1) }
