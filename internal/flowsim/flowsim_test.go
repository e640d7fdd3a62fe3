package flowsim

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/impl"
	"repro/internal/library"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/p2p"
	"repro/internal/place"
	"repro/internal/synth"
	"repro/internal/workloads"
)

var radio = library.Link{Name: "radio", Bandwidth: 11, MaxSpan: math.Inf(1), CostPerLength: 2}

func singleChannelGraph(t *testing.T, bw float64) (*impl.Graph, model.ChannelID) {
	t.Helper()
	cg := model.NewConstraintGraph(geom.Euclidean)
	u := cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(0, 0)})
	v := cg.MustAddPort(model.Port{Name: "v", Position: geom.Pt(10, 0)})
	ch := cg.MustAddChannel(model.Channel{Name: "c", From: u, To: v, Bandwidth: bw})
	ig := impl.New(cg)
	a, err := ig.AddLink(graph.VertexID(u), graph.VertexID(v), radio)
	if err != nil {
		t.Fatal(err)
	}
	ig.AssignImplementation(ch, []graph.Path{{
		Vertices: []graph.VertexID{graph.VertexID(u), graph.VertexID(v)},
		Arcs:     []graph.ArcID{a},
	}})
	return ig, ch
}

func TestSingleLinkDelivers(t *testing.T) {
	ig, _ := singleChannelGraph(t, 10)
	res, err := Simulate(ig, Config{Ticks: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSatisfied() {
		t.Errorf("channel starved: %+v", res.Channels)
	}
	c := res.Channels[0]
	if math.Abs(c.Delivered-10) > 0.2 {
		t.Errorf("delivered = %v, want ≈10", c.Delivered)
	}
	if len(res.Links) != 1 {
		t.Fatalf("links = %d", len(res.Links))
	}
	// 10 of 11 Mbps used.
	if u := res.Links[0].MeanUtilization; math.Abs(u-10.0/11) > 0.05 {
		t.Errorf("utilization = %v, want ≈0.909", u)
	}
}

func TestOverloadedLinkSaturates(t *testing.T) {
	// Demand 22 over an 11 Mbps link (a deliberately broken
	// architecture): delivery caps at capacity.
	ig, _ := singleChannelGraph(t, 22)
	res, err := Simulate(ig, Config{Ticks: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllSatisfied() {
		t.Error("overloaded channel should be unsatisfied")
	}
	c := res.Channels[0]
	if math.Abs(c.Delivered-11) > 0.3 {
		t.Errorf("delivered = %v, want ≈11 (capacity)", c.Delivered)
	}
	if u := res.Links[0].PeakUtilization; u > 1.0+1e-9 {
		t.Errorf("utilization exceeded 1: %v", u)
	}
}

func TestSegmentedPipelineDelivers(t *testing.T) {
	cg := model.NewConstraintGraph(geom.Manhattan)
	u := cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(0, 0)})
	v := cg.MustAddPort(model.Port{Name: "v", Position: geom.Pt(3, 0)})
	cg.MustAddChannel(model.Channel{Name: "c", From: u, To: v, Bandwidth: 50})
	lib := &library.Library{
		Links: []library.Link{{Name: "wire", Bandwidth: 100, MaxSpan: 1, CostFixed: 0.1}},
		Nodes: []library.Node{{Name: "rep", Kind: library.Repeater, Cost: 1}},
	}
	ig, _, err := p2p.Synthesize(cg, lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(ig, Config{Ticks: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSatisfied() {
		t.Errorf("segmented channel starved: %+v", res.Channels)
	}
}

func TestDuplicatedChannelSplits(t *testing.T) {
	// 20 Mbps over two parallel 11 Mbps radios.
	cg := model.NewConstraintGraph(geom.Euclidean)
	u := cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(0, 0)})
	v := cg.MustAddPort(model.Port{Name: "v", Position: geom.Pt(10, 0)})
	cg.MustAddChannel(model.Channel{Name: "c", From: u, To: v, Bandwidth: 20})
	lib := &library.Library{Links: []library.Link{radio}}
	ig, _, err := p2p.Synthesize(cg, lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(ig, Config{Ticks: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSatisfied() {
		t.Errorf("duplicated channel starved: %+v", res.Channels)
	}
}

func TestSynthesizedWANDeliversAll(t *testing.T) {
	// The paper's optimal architecture must sustain all eight demands
	// concurrently — including the three merged onto one optical trunk.
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	ig, _, err := synth.Synthesize(cg, lib, synth.Options{
		Merging: merging.Options{Policy: merging.MaxIndexRef},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(ig, Config{Ticks: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSatisfied() {
		t.Errorf("synthesized WAN starves channels: %+v", res.Channels)
	}
	for _, l := range res.Links {
		if l.PeakUtilization > 1.0+1e-9 {
			t.Errorf("link %s overloaded: %v", l.Link, l.PeakUtilization)
		}
	}
}

func TestMaxRuleTrunkStarves(t *testing.T) {
	// Ablation: size the {a4, a5, a6} merging's trunk by the literal
	// Definition 2.8 rule (≥ max bᵢ) instead of the sum. Placement
	// sizes every trunk by the sum, so place the merging over a radio
	// wide enough for the 30 Mbps sum, then swap its trunk onto the
	// 11 Mbps radio the max rule would accept. Three concurrent 10 Mbps
	// channels on an 11 Mbps trunk must starve.
	cg := workloads.WAN()
	lib := &library.Library{
		Links: []library.Link{radio},
		Nodes: []library.Node{
			{Name: "mux", Kind: library.Mux, Cost: 0},
			{Name: "demux", Kind: library.Demux, Cost: 0},
		},
	}
	wide := radio
	wide.Bandwidth = 30
	var ids []model.ChannelID
	for _, name := range []string{"a4", "a5", "a6"} {
		id, _ := cg.ChannelByName(name)
		ids = append(ids, id)
	}
	cand, err := place.Optimize(cg, &library.Library{Links: []library.Link{wide}, Nodes: lib.Nodes}, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	cand.TrunkPlan.Link = radio
	ig := impl.New(cg)
	if err := cand.Instantiate(ig, lib); err != nil {
		t.Fatal(err)
	}
	// Implement the remaining channels point-to-point so Simulate has a
	// complete architecture.
	for i := 0; i < cg.NumChannels(); i++ {
		ch := model.ChannelID(i)
		if containsChannel(ids, ch) {
			continue
		}
		plan, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := p2p.Instantiate(ig, ch, plan, lib); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Simulate(ig, Config{Ticks: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllSatisfied() {
		t.Fatal("max-rule trunk should starve the merged channels")
	}
	var totalMerged float64
	for _, name := range []string{"a4", "a5", "a6"} {
		c, ok := channelByName(res, name)
		if !ok {
			t.Fatalf("channel %s missing", name)
		}
		totalMerged += c.Delivered
	}
	// Three 10 Mbps flows squeezed through 11 Mbps: combined ≈ 11.
	if math.Abs(totalMerged-11) > 0.5 {
		t.Errorf("merged delivery = %v, want ≈11 (trunk capacity)", totalMerged)
	}
}

func TestSimulateMissingImplementation(t *testing.T) {
	cg := model.NewConstraintGraph(geom.Euclidean)
	u := cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(0, 0)})
	v := cg.MustAddPort(model.Port{Name: "v", Position: geom.Pt(1, 0)})
	cg.MustAddChannel(model.Channel{Name: "c", From: u, To: v, Bandwidth: 1})
	ig := impl.New(cg)
	if _, err := Simulate(ig, Config{}); err == nil {
		t.Error("missing implementation should error")
	}
}

func TestMaxMinFairness(t *testing.T) {
	// Two queues of 10 and 2 sharing capacity 6: max-min gives 4 and 2.
	f1 := &flow{queues: []float64{10}}
	f2 := &flow{queues: []float64{2}}
	served := maxMinServe([]hopRef{{f1, 0}, {f2, 0}}, 6)
	if math.Abs(served[0]-4) > 1e-9 || math.Abs(served[1]-2) > 1e-9 {
		t.Errorf("served = %v, want [4 2]", served)
	}
	// Zero capacity serves nothing.
	served = maxMinServe([]hopRef{{f1, 0}}, 0)
	if served[0] != 0 {
		t.Errorf("zero capacity served %v", served[0])
	}
}

func containsChannel(ids []model.ChannelID, ch model.ChannelID) bool {
	for _, id := range ids {
		if id == ch {
			return true
		}
	}
	return false
}

func TestLatencyEqualsHopCount(t *testing.T) {
	// A 3-segment chain fills in exactly 3 ticks.
	cg := model.NewConstraintGraph(geom.Manhattan)
	u := cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(0, 0)})
	v := cg.MustAddPort(model.Port{Name: "v", Position: geom.Pt(3, 0)})
	cg.MustAddChannel(model.Channel{Name: "c", From: u, To: v, Bandwidth: 50})
	lib := &library.Library{
		Links: []library.Link{{Name: "wire", Bandwidth: 100, MaxSpan: 1, CostFixed: 0.1}},
		Nodes: []library.Node{{Name: "rep", Kind: library.Repeater, Cost: 1}},
	}
	ig, plans, err := p2p.Synthesize(cg, lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(ig, Config{Ticks: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Channels[0].LatencyTicks, plans[0].Segments; got != want {
		t.Errorf("latency = %d ticks, want %d (hop count)", got, want)
	}
}

func TestLatencyUnreachedIsMinusOne(t *testing.T) {
	// Zero effective capacity is impossible to build via the library
	// (positive bandwidth required); instead use few ticks: a 5-hop
	// pipeline cannot deliver within 3 ticks.
	cg := model.NewConstraintGraph(geom.Manhattan)
	u := cg.MustAddPort(model.Port{Name: "u", Position: geom.Pt(0, 0)})
	v := cg.MustAddPort(model.Port{Name: "v", Position: geom.Pt(5, 0)})
	cg.MustAddChannel(model.Channel{Name: "c", From: u, To: v, Bandwidth: 50})
	lib := &library.Library{
		Links: []library.Link{{Name: "wire", Bandwidth: 100, MaxSpan: 1, CostFixed: 0.1}},
		Nodes: []library.Node{{Name: "rep", Kind: library.Repeater, Cost: 1}},
	}
	ig, _, err := p2p.Synthesize(cg, lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(ig, Config{Ticks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Channels[0].LatencyTicks != -1 {
		t.Errorf("latency = %d, want -1 (nothing delivered in 3 ticks over 5 hops)",
			res.Channels[0].LatencyTicks)
	}
}

// channelByName finds a channel's stats by constraint-graph name.
func channelByName(r *Result, name string) (ChannelStats, bool) {
	for _, c := range r.Channels {
		if c.Name == name {
			return c, true
		}
	}
	return ChannelStats{}, false
}
