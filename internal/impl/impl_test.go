package impl

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/model"
)

var (
	radio   = library.Link{Name: "radio", Bandwidth: 11, MaxSpan: math.Inf(1), CostPerLength: 2}
	optical = library.Link{Name: "optical", Bandwidth: 1000, MaxSpan: math.Inf(1), CostPerLength: 4}
	segment = library.Link{Name: "segment", Bandwidth: 100, MaxSpan: 6, CostFixed: 1}
	repnode = library.Node{Name: "rep", Kind: library.Repeater, Cost: 1}
	muxnode = library.Node{Name: "mux", Kind: library.Mux, Cost: 2}
)

// simpleCG builds u --(10 Mbps)--> v at distance 10.
func simpleCG(t *testing.T) (*model.ConstraintGraph, model.PortID, model.PortID, model.ChannelID) {
	t.Helper()
	cg := model.NewConstraintGraph(geom.Euclidean)
	u := cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(0, 0)})
	v := cg.MustAddPort(model.Port{Name: "v", Position: geom.Pt(10, 0)})
	ch := cg.MustAddChannel(model.Channel{Name: "a1", From: u, To: v, Bandwidth: 10})
	return cg, u, v, ch
}

func TestNewMirrorsPorts(t *testing.T) {
	cg, u, v, _ := simpleCG(t)
	ig := New(cg)
	if ig.NumVertices() != 2 || ig.NumCommVertices() != 0 {
		t.Fatalf("vertex counts: total=%d comm=%d", ig.NumVertices(), ig.NumCommVertices())
	}
	for _, id := range []model.PortID{u, v} {
		vx := ig.Vertex(graph.VertexID(id))
		if vx.Kind != Computational || !vx.Position.Eq(cg.Port(id).Position) {
			t.Errorf("vertex %d does not mirror port: %+v", id, vx)
		}
	}
}

func TestArcMatchingVerifies(t *testing.T) {
	cg, u, v, ch := simpleCG(t)
	ig := New(cg)
	a, err := ig.AddLink(graph.VertexID(u), graph.VertexID(v), radio)
	if err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	ig.AssignImplementation(ch, []graph.Path{{
		Vertices: []graph.VertexID{graph.VertexID(u), graph.VertexID(v)},
		Arcs:     []graph.ArcID{a},
	}})
	if err := ig.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if got := ig.Cost(); got != 20 { // radio $2/unit × 10 units
		t.Errorf("Cost = %v, want 20", got)
	}
	if got := ig.ArcLength(a); got != 10 {
		t.Errorf("ArcLength = %v, want 10", got)
	}
}

func TestSegmentationVerifies(t *testing.T) {
	cg, u, v, ch := simpleCG(t)
	ig := New(cg)
	// Two 5-unit segments joined by a repeater; segment max span is 6.
	mid, err := ig.AddCommVertex(repnode, geom.Pt(5, 0), "r0")
	if err != nil {
		t.Fatalf("AddCommVertex: %v", err)
	}
	a0, err := ig.AddLink(graph.VertexID(u), mid, segment)
	if err != nil {
		t.Fatalf("AddLink 1: %v", err)
	}
	a1, err := ig.AddLink(mid, graph.VertexID(v), segment)
	if err != nil {
		t.Fatalf("AddLink 2: %v", err)
	}
	p := graph.Path{
		Vertices: []graph.VertexID{graph.VertexID(u), mid, graph.VertexID(v)},
		Arcs:     []graph.ArcID{a0, a1},
	}
	ig.AssignImplementation(ch, []graph.Path{p})
	if err := ig.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Cost: 2 segments × $1 + 1 repeater × $1 = 3.
	if got := ig.Cost(); got != 3 {
		t.Errorf("Cost = %v, want 3", got)
	}
	if got := ig.PathLength(p); got != 10 {
		t.Errorf("PathLength = %v, want 10", got)
	}
	if got := ig.PathBandwidth(p); got != 100 {
		t.Errorf("PathBandwidth = %v, want 100", got)
	}
	if ig.NumCommVertices() != 1 {
		t.Errorf("NumCommVertices = %d, want 1", ig.NumCommVertices())
	}
}

func TestDuplicationVerifies(t *testing.T) {
	// Channel needs 20 Mbps; radio gives 11 per link, so two parallel
	// radios are required.
	cg := model.NewConstraintGraph(geom.Euclidean)
	u := cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(0, 0)})
	v := cg.MustAddPort(model.Port{Name: "v", Position: geom.Pt(10, 0)})
	ch := cg.MustAddChannel(model.Channel{Name: "a1", From: u, To: v, Bandwidth: 20})
	ig := New(cg)
	a0, _ := ig.AddLink(graph.VertexID(u), graph.VertexID(v), radio)
	a1, _ := ig.AddLink(graph.VertexID(u), graph.VertexID(v), radio)
	ig.AssignImplementation(ch, []graph.Path{
		{Vertices: []graph.VertexID{graph.VertexID(u), graph.VertexID(v)}, Arcs: []graph.ArcID{a0}},
		{Vertices: []graph.VertexID{graph.VertexID(u), graph.VertexID(v)}, Arcs: []graph.ArcID{a1}},
	})
	if err := ig.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// One radio alone must fail the bandwidth check.
	ig2 := New(cg)
	b0, _ := ig2.AddLink(graph.VertexID(u), graph.VertexID(v), radio)
	ig2.AssignImplementation(ch, []graph.Path{
		{Vertices: []graph.VertexID{graph.VertexID(u), graph.VertexID(v)}, Arcs: []graph.ArcID{b0}},
	})
	if err := ig2.Verify(); err == nil {
		t.Error("insufficient bandwidth should fail verification")
	}
}

func TestMergingSharedTrunk(t *testing.T) {
	// Two channels from the same source to two nearby destinations share
	// an optical trunk to a mux-less split point (demux), then branch.
	cg := model.NewConstraintGraph(geom.Euclidean)
	s := cg.MustAddPort(model.Port{Name: "s", Position: geom.Pt(0, 0)})
	d1 := cg.MustAddPort(model.Port{Name: "d1", Position: geom.Pt(100, 1)})
	d2 := cg.MustAddPort(model.Port{Name: "d2", Position: geom.Pt(100, -1)})
	c1 := cg.MustAddChannel(model.Channel{Name: "c1", From: s, To: d1, Bandwidth: 10})
	c2 := cg.MustAddChannel(model.Channel{Name: "c2", From: s, To: d2, Bandwidth: 10})

	ig := New(cg)
	split, _ := ig.AddCommVertex(library.Node{Name: "demux", Kind: library.Demux, Cost: 2}, geom.Pt(100, 0), "split")
	trunk, _ := ig.AddLink(graph.VertexID(s), split, optical)
	b1, _ := ig.AddLink(split, graph.VertexID(d1), radio)
	b2, _ := ig.AddLink(split, graph.VertexID(d2), radio)
	ig.AssignImplementation(c1, []graph.Path{{
		Vertices: []graph.VertexID{graph.VertexID(s), split, graph.VertexID(d1)},
		Arcs:     []graph.ArcID{trunk, b1},
	}})
	ig.AssignImplementation(c2, []graph.Path{{
		Vertices: []graph.VertexID{graph.VertexID(s), split, graph.VertexID(d2)},
		Arcs:     []graph.ArcID{trunk, b2},
	}})
	if err := ig.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestSumCapacityRejectsOverload(t *testing.T) {
	// Two 10 Mbps channels over one shared 11 Mbps radio trunk: each
	// fits alone, together they overload it.
	cg := model.NewConstraintGraph(geom.Euclidean)
	s := cg.MustAddPort(model.Port{Name: "s", Position: geom.Pt(0, 0)})
	d1 := cg.MustAddPort(model.Port{Name: "d1", Position: geom.Pt(100, 1)})
	d2 := cg.MustAddPort(model.Port{Name: "d2", Position: geom.Pt(100, -1)})
	c1 := cg.MustAddChannel(model.Channel{Name: "c1", From: s, To: d1, Bandwidth: 10})
	c2 := cg.MustAddChannel(model.Channel{Name: "c2", From: s, To: d2, Bandwidth: 10})

	ig := New(cg)
	split, _ := ig.AddCommVertex(library.Node{Name: "demux", Kind: library.Demux, Cost: 2}, geom.Pt(100, 0), "split")
	trunk, _ := ig.AddLink(graph.VertexID(s), split, radio)
	b1, _ := ig.AddLink(split, graph.VertexID(d1), radio)
	b2, _ := ig.AddLink(split, graph.VertexID(d2), radio)
	ig.AssignImplementation(c1, []graph.Path{{
		Vertices: []graph.VertexID{graph.VertexID(s), split, graph.VertexID(d1)},
		Arcs:     []graph.ArcID{trunk, b1},
	}})
	ig.AssignImplementation(c2, []graph.Path{{
		Vertices: []graph.VertexID{graph.VertexID(s), split, graph.VertexID(d2)},
		Arcs:     []graph.ArcID{trunk, b2},
	}})
	if err := ig.Verify(); err == nil {
		t.Error("sum rule should reject 20 Mbps over an 11 Mbps trunk")
	}
}

func TestVerifyStructuralErrors(t *testing.T) {
	cg, u, v, ch := simpleCG(t)

	t.Run("missing implementation", func(t *testing.T) {
		ig := New(cg)
		ig.AddLink(graph.VertexID(u), graph.VertexID(v), radio)
		if err := ig.Verify(); err == nil {
			t.Error("missing P(a) should fail")
		}
	})

	t.Run("wrong endpoints", func(t *testing.T) {
		ig := New(cg)
		a, _ := ig.AddLink(graph.VertexID(v), graph.VertexID(u), radio) // reversed
		ig.AssignImplementation(ch, []graph.Path{{
			Vertices: []graph.VertexID{graph.VertexID(v), graph.VertexID(u)},
			Arcs:     []graph.ArcID{a},
		}})
		if err := ig.Verify(); err == nil {
			t.Error("reversed path should fail")
		}
	})

	t.Run("computational interior", func(t *testing.T) {
		cg2 := model.NewConstraintGraph(geom.Euclidean)
		a := cg2.MustAddPort(model.Port{Name: "a", Position: geom.Pt(0, 0)})
		b := cg2.MustAddPort(model.Port{Name: "b", Position: geom.Pt(5, 0)})
		c := cg2.MustAddPort(model.Port{Name: "c", Position: geom.Pt(10, 0)})
		ac := cg2.MustAddChannel(model.Channel{Name: "ac", From: a, To: c, Bandwidth: 5})
		ig := New(cg2)
		l1, _ := ig.AddLink(graph.VertexID(a), graph.VertexID(b), radio)
		l2, _ := ig.AddLink(graph.VertexID(b), graph.VertexID(c), radio)
		ig.AssignImplementation(ac, []graph.Path{{
			Vertices: []graph.VertexID{graph.VertexID(a), graph.VertexID(b), graph.VertexID(c)},
			Arcs:     []graph.ArcID{l1, l2},
		}})
		if err := ig.Verify(); err == nil {
			t.Error("path through computational vertex should fail")
		}
	})

	t.Run("unused link", func(t *testing.T) {
		ig := New(cg)
		a, _ := ig.AddLink(graph.VertexID(u), graph.VertexID(v), radio)
		ig.AddLink(graph.VertexID(u), graph.VertexID(v), radio) // dead hardware
		ig.AssignImplementation(ch, []graph.Path{{
			Vertices: []graph.VertexID{graph.VertexID(u), graph.VertexID(v)},
			Arcs:     []graph.ArcID{a},
		}})
		if err := ig.Verify(); err == nil {
			t.Error("unused link should fail verification")
		}
	})

	t.Run("unused comm vertex", func(t *testing.T) {
		ig := New(cg)
		a, _ := ig.AddLink(graph.VertexID(u), graph.VertexID(v), radio)
		ig.AddCommVertex(repnode, geom.Pt(5, 5), "orphan")
		ig.AssignImplementation(ch, []graph.Path{{
			Vertices: []graph.VertexID{graph.VertexID(u), graph.VertexID(v)},
			Arcs:     []graph.ArcID{a},
		}})
		if err := ig.Verify(); err == nil {
			t.Error("orphan communication vertex should fail verification")
		}
	})
}

func TestAddLinkSpanEnforced(t *testing.T) {
	cg, u, v, _ := simpleCG(t)
	ig := New(cg)
	if _, err := ig.AddLink(graph.VertexID(u), graph.VertexID(v), segment); err == nil {
		t.Error("6-unit segment cannot span 10 units; AddLink should fail")
	}
	if _, err := ig.AddLink(99, graph.VertexID(v), radio); err == nil {
		t.Error("bad endpoint should fail")
	}
}

func TestAddCommVertexRejectsNonFinite(t *testing.T) {
	cg, _, _, _ := simpleCG(t)
	ig := New(cg)
	if _, err := ig.AddCommVertex(muxnode, geom.Pt(math.NaN(), 0), "bad"); err == nil {
		t.Error("NaN position should be rejected")
	}
}

func TestCommVertexCostCounted(t *testing.T) {
	cg, u, v, ch := simpleCG(t)
	ig := New(cg)
	mid, _ := ig.AddCommVertex(library.Node{Name: "rep", Kind: library.Repeater, Cost: 7}, geom.Pt(5, 0), "")
	a0, _ := ig.AddLink(graph.VertexID(u), mid, radio)
	a1, _ := ig.AddLink(mid, graph.VertexID(v), radio)
	ig.AssignImplementation(ch, []graph.Path{{
		Vertices: []graph.VertexID{graph.VertexID(u), mid, graph.VertexID(v)},
		Arcs:     []graph.ArcID{a0, a1},
	}})
	// 2 radios × 5 units × $2 + $7 repeater = 27.
	if got := ig.Cost(); got != 27 {
		t.Errorf("Cost = %v, want 27", got)
	}
	// Default name assigned.
	if name := ig.Vertex(mid).Name; !strings.Contains(name, "rep") {
		t.Errorf("default name = %q", name)
	}
}

func TestDot(t *testing.T) {
	cg, u, v, ch := simpleCG(t)
	ig := New(cg)
	a, _ := ig.AddLink(graph.VertexID(u), graph.VertexID(v), radio)
	ig.AssignImplementation(ch, []graph.Path{{
		Vertices: []graph.VertexID{graph.VertexID(u), graph.VertexID(v)},
		Arcs:     []graph.ArcID{a},
	}})
	dot := ig.Dot()
	for _, want := range []string{"digraph", "radio", "shape=ellipse"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestTrivialPathBandwidth(t *testing.T) {
	cg, u, _, _ := simpleCG(t)
	ig := New(cg)
	p := graph.Path{Vertices: []graph.VertexID{graph.VertexID(u)}}
	if got := ig.PathBandwidth(p); !math.IsInf(got, 1) {
		t.Errorf("trivial path bandwidth = %v, want +Inf", got)
	}
	if got := ig.PathLength(p); got != 0 {
		t.Errorf("trivial path length = %v, want 0", got)
	}
}
