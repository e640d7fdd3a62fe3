package routing

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/impl"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/p2p"
	"repro/internal/workloads"
)

var wire = library.Link{Name: "wire", Bandwidth: 100, MaxSpan: 10, CostFixed: 0.01}

func simpleChip(t *testing.T, from, to geom.Point) *impl.Graph {
	t.Helper()
	cg := model.NewConstraintGraph(geom.Manhattan)
	u := cg.MustAddPort(model.Port{Name: "u", Position: from})
	v := cg.MustAddPort(model.Port{Name: "v", Position: to})
	ch := cg.MustAddChannel(model.Channel{Name: "c", From: u, To: v, Bandwidth: 1})
	ig := impl.New(cg)
	a, err := ig.AddLink(graph.VertexID(u), graph.VertexID(v), wire)
	if err != nil {
		t.Fatal(err)
	}
	ig.AssignImplementation(ch, []graph.Path{{
		Vertices: []graph.VertexID{graph.VertexID(u), graph.VertexID(v)},
		Arcs:     []graph.ArcID{a},
	}})
	return ig
}

func TestLPathShapes(t *testing.T) {
	a, b := geom.Pt(0, 0), geom.Pt(3, 4)
	hv := lPath(a, b, true)
	if len(hv) != 3 || !hv[1].Eq(geom.Pt(3, 0)) {
		t.Errorf("HV path = %v", hv)
	}
	vh := lPath(a, b, false)
	if len(vh) != 3 || !vh[1].Eq(geom.Pt(0, 4)) {
		t.Errorf("VH path = %v", vh)
	}
	aligned := lPath(geom.Pt(0, 0), geom.Pt(5, 0), true)
	if len(aligned) != 2 {
		t.Errorf("aligned path should be a straight segment: %v", aligned)
	}
	// Both elbows realize the Manhattan distance exactly.
	want := geom.Manhattan.Distance(a, b)
	for _, p := range [][]geom.Point{hv, vh} {
		if got := geom.PathLength(geom.Manhattan, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("path length %v ≠ Manhattan distance %v", got, want)
		}
	}
}

func TestRouteSingleLink(t *testing.T) {
	ig := simpleChip(t, geom.Pt(0, 0), geom.Pt(3, 4))
	res, err := RouteImplementation(ig)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != 1 {
		t.Fatalf("routes = %d, want 1", len(res.Routes))
	}
	r := res.Routes[0]
	if !r.Points[0].Eq(geom.Pt(0, 0)) || !r.Points[len(r.Points)-1].Eq(geom.Pt(3, 4)) {
		t.Errorf("route endpoints wrong: %v", r.Points)
	}
	if math.Abs(res.TotalWirelength-7) > 1e-12 {
		t.Errorf("wirelength = %v, want 7", res.TotalWirelength)
	}
	// Axis-aligned segments only.
	for i := 1; i < len(r.Points); i++ {
		dx := r.Points[i].X - r.Points[i-1].X
		dy := r.Points[i].Y - r.Points[i-1].Y
		if dx != 0 && dy != 0 {
			t.Errorf("segment %d not axis-aligned: %v", i, r.Points)
		}
	}
}

func TestRouteRequiresManhattan(t *testing.T) {
	cg := model.NewConstraintGraph(geom.Euclidean)
	cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(0, 0)})
	ig := impl.New(cg)
	if _, err := RouteImplementation(ig); err == nil {
		t.Error("Euclidean graphs should be rejected")
	}
}

func TestRouteEmptyGraph(t *testing.T) {
	cg := model.NewConstraintGraph(geom.Manhattan)
	cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(0, 0)})
	ig := impl.New(cg)
	res, err := RouteImplementation(ig)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != 0 || res.TotalWirelength != 0 {
		t.Errorf("empty routing wrong: %+v", res)
	}
}

func TestCongestionSpreading(t *testing.T) {
	// Many identical diagonal links: the greedy elbow choice must split
	// them across HV and VH, halving the worst-cell overlap compared to
	// routing them all the same way.
	cg := model.NewConstraintGraph(geom.Manhattan)
	nLinks := 8
	for i := 0; i < nLinks; i++ {
		u := cg.MustAddPort(model.Port{
			Name:     "u" + string(rune('0'+i)),
			Position: geom.Pt(0, 0),
		})
		v := cg.MustAddPort(model.Port{
			Name:     "v" + string(rune('0'+i)),
			Position: geom.Pt(8, 8),
		})
		cg.MustAddChannel(model.Channel{
			Name: "c" + string(rune('0'+i)), From: u, To: v, Bandwidth: 1,
		})
	}
	ig := impl.New(cg)
	bigWire := library.Link{Name: "wire", Bandwidth: 100, MaxSpan: 100, CostFixed: 0.01}
	for i := 0; i < nLinks; i++ {
		a, err := ig.AddLink(graph.VertexID(2*i), graph.VertexID(2*i+1), bigWire)
		if err != nil {
			t.Fatal(err)
		}
		ig.AssignImplementation(model.ChannelID(i), []graph.Path{{
			Vertices: []graph.VertexID{graph.VertexID(2 * i), graph.VertexID(2*i + 1)},
			Arcs:     []graph.ArcID{a},
		}})
	}
	res, err := RouteImplementation(ig)
	if err != nil {
		t.Fatal(err)
	}
	hv, vh := 0, 0
	for _, r := range res.Routes {
		if len(r.Points) != 3 {
			t.Fatalf("expected elbow routes, got %v", r.Points)
		}
		if r.Points[1].Y == r.Points[0].Y {
			hv++
		} else {
			vh++
		}
	}
	if hv == 0 || vh == 0 {
		t.Errorf("greedy router did not spread elbows: hv=%d vh=%d", hv, vh)
	}
	// Everyone shares the two endpoint cells, but the elbow split keeps
	// the interior cells at roughly half the routes.
	if res.MaxOverlap > nLinks {
		t.Errorf("MaxOverlap = %d > %d routes?", res.MaxOverlap, nLinks)
	}
}

func TestRouteMPEG4(t *testing.T) {
	cg := workloads.MPEG4()
	lib := workloads.MPEG4Technology().Library()
	ig, _, err := p2p.Synthesize(cg, lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RouteImplementation(ig)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != ig.NumLinks() {
		t.Errorf("routed %d of %d links", len(res.Routes), ig.NumLinks())
	}
	// Total wirelength equals the summed realized link lengths (the
	// router embeds, never lengthens).
	want := ig.Stats().TotalLength
	if math.Abs(res.TotalWirelength-want) > 1e-9 {
		t.Errorf("wirelength %v ≠ link lengths %v", res.TotalWirelength, want)
	}
	if res.MaxOverlap < 1 {
		t.Error("congestion stats missing")
	}
}
