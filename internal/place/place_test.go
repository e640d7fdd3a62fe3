package place

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/impl"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/p2p"
	"repro/internal/workloads"
)

func fanInstance(t *testing.T) (*model.ConstraintGraph, []model.ChannelID) {
	// Three 10 Mbps channels from a common source position to three
	// destinations clustered ~100 away — the shape of the paper's
	// {a4, a5, a6} merging.
	t.Helper()
	cg := model.NewConstraintGraph(geom.Euclidean)
	var ids []model.ChannelID
	dsts := []geom.Point{geom.Pt(100, 0), geom.Pt(103, -4), geom.Pt(101, -9)}
	for i, d := range dsts {
		u := cg.MustAddPort(model.Port{Name: "s" + string(rune('0'+i)), Position: geom.Pt(0, 0)})
		v := cg.MustAddPort(model.Port{Name: "d" + string(rune('0'+i)), Position: d})
		ids = append(ids, cg.MustAddChannel(model.Channel{
			Name: "c" + string(rune('0'+i)), From: u, To: v, Bandwidth: 10,
		}))
	}
	return cg, ids
}

func TestOptimizeFanMerging(t *testing.T) {
	cg, ids := fanInstance(t)
	lib := workloads.WANLibrary()
	cand, err := Optimize(cg, lib, ids, nil)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// The trunk must be optical: 30 Mbps exceeds the 11 Mbps radio.
	if cand.TrunkPlan.Link.Name != "optical" {
		t.Errorf("trunk link = %q, want optical", cand.TrunkPlan.Link.Name)
	}
	// The mux belongs at the shared source.
	if !cand.MuxPos.AlmostEq(geom.Pt(0, 0), 0.5) {
		t.Errorf("mux at %v, want near origin", cand.MuxPos)
	}
	// Candidate must beat the point-to-point alternative (3 radio links).
	var p2pCost float64
	for _, ch := range ids {
		p, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
		if err != nil {
			t.Fatal(err)
		}
		p2pCost += p.Cost
	}
	if cand.Cost >= p2pCost {
		t.Errorf("merged cost %v should beat p2p %v", cand.Cost, p2pCost)
	}
	// Sanity bound: trunk ≈ 4·100, access ≈ small.
	if cand.Cost < 380 || cand.Cost > 450 {
		t.Errorf("cost %v outside plausible band [380, 450]", cand.Cost)
	}
}

func TestOptimizeRejectsSmallSets(t *testing.T) {
	cg, ids := fanInstance(t)
	if _, err := Optimize(cg, workloads.WANLibrary(), ids[:1], nil); err == nil {
		t.Error("single-channel merging should be rejected")
	}
}

func TestOptimizeNeedsSwitches(t *testing.T) {
	cg, ids := fanInstance(t)
	lib := &library.Library{
		Links: []library.Link{
			{Name: "radio", Bandwidth: 11, MaxSpan: math.Inf(1), CostPerLength: 2},
			{Name: "optical", Bandwidth: 1000, MaxSpan: math.Inf(1), CostPerLength: 4},
		},
	}
	if _, err := Optimize(cg, lib, ids, nil); err == nil {
		t.Error("library without mux/demux should make merging infeasible")
	}
}

func TestOptimizeTrunkOverload(t *testing.T) {
	// Merged bandwidth 30 exceeds the only link's 11: no single-chain
	// trunk exists.
	cg, ids := fanInstance(t)
	lib := &library.Library{
		Links: []library.Link{
			{Name: "radio", Bandwidth: 11, MaxSpan: math.Inf(1), CostPerLength: 2},
		},
		Nodes: []library.Node{
			{Name: "mux", Kind: library.Mux, Cost: 0},
			{Name: "demux", Kind: library.Demux, Cost: 0},
		},
	}
	if _, err := Optimize(cg, lib, ids, nil); err == nil {
		t.Error("trunk overload should make merging infeasible")
	}
}

func TestNodeCostsIncluded(t *testing.T) {
	cg, ids := fanInstance(t)
	free := workloads.WANLibrary()
	cheap, err := Optimize(cg, free, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	costly := workloads.WANLibrary()
	for i := range costly.Nodes {
		costly.Nodes[i].Cost = 7
	}
	expensive, err := Optimize(cg, costly, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	diff := expensive.Cost - cheap.Cost
	if math.Abs(diff-14) > 0.5 {
		t.Errorf("node costs not reflected: diff = %v, want ≈ 14", diff)
	}
}

func TestInstantiateVerifies(t *testing.T) {
	cg, ids := fanInstance(t)
	lib := workloads.WANLibrary()
	cand, err := Optimize(cg, lib, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	ig := impl.New(cg)
	if err := cand.Instantiate(ig, lib); err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	if err := ig.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// The implementation-graph cost must equal the candidate cost.
	if got := ig.Cost(); math.Abs(got-cand.Cost) > 1e-6 {
		t.Errorf("graph cost %v ≠ candidate cost %v", got, cand.Cost)
	}
	// Exactly one mux and one demux vertex plus no repeaters.
	if n := ig.NumCommVertices(); n != 2 {
		t.Errorf("comm vertices = %d, want 2", n)
	}
}

func TestInstantiateSegmentedTrunkVerifies(t *testing.T) {
	// A short-span fixed-cost library forces the trunk and the access
	// legs to be segmented with repeaters.
	cg := model.NewConstraintGraph(geom.Manhattan)
	var ids []model.ChannelID
	for i, d := range []geom.Point{geom.Pt(5, 0.2), geom.Pt(5, -0.2)} {
		u := cg.MustAddPort(model.Port{Name: "s" + string(rune('0'+i)), Position: geom.Pt(0, 0)})
		v := cg.MustAddPort(model.Port{Name: "d" + string(rune('0'+i)), Position: d})
		ids = append(ids, cg.MustAddChannel(model.Channel{
			Name: "c" + string(rune('0'+i)), From: u, To: v, Bandwidth: 10,
		}))
	}
	lib := &library.Library{
		Links: []library.Link{
			{Name: "wire", Bandwidth: 100, MaxSpan: 1.0, CostFixed: 0.05},
		},
		Nodes: []library.Node{
			{Name: "rep", Kind: library.Repeater, Cost: 1},
			{Name: "mux", Kind: library.Mux, Cost: 1},
			{Name: "demux", Kind: library.Demux, Cost: 1},
		},
	}
	cand, err := Optimize(cg, lib, ids, nil)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	ig := impl.New(cg)
	if err := cand.Instantiate(ig, lib); err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	if err := ig.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if cand.TrunkPlan.Segments < 2 {
		t.Errorf("trunk should be segmented, got %d segments", cand.TrunkPlan.Segments)
	}
}

func TestInstantiateDuplicatedAccessVerifies(t *testing.T) {
	// Channels of 20 Mbps: access legs on 11 Mbps radio need
	// duplication, while the optical trunk carries 40 Mbps on one chain.
	cg := model.NewConstraintGraph(geom.Euclidean)
	var ids []model.ChannelID
	for i, d := range []geom.Point{geom.Pt(100, 3), geom.Pt(100, -3)} {
		u := cg.MustAddPort(model.Port{Name: "s" + string(rune('0'+i)), Position: geom.Pt(0, float64(i))})
		v := cg.MustAddPort(model.Port{Name: "d" + string(rune('0'+i)), Position: d})
		ids = append(ids, cg.MustAddChannel(model.Channel{
			Name: "c" + string(rune('0'+i)), From: u, To: v, Bandwidth: 20,
		}))
	}
	lib := workloads.WANLibrary()
	cand, err := Optimize(cg, lib, ids, nil)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	ig := impl.New(cg)
	if err := cand.Instantiate(ig, lib); err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	if err := ig.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestWANTripleMergeCost(t *testing.T) {
	// The paper's winning candidate: merge {a4, a5, a6} on an optical
	// trunk from D towards the A/B/C cluster.
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	var ids []model.ChannelID
	for _, name := range []string{"a4", "a5", "a6"} {
		id, ok := cg.ChannelByName(name)
		if !ok {
			t.Fatalf("channel %s missing", name)
		}
		ids = append(ids, id)
	}
	cand, err := Optimize(cg, lib, ids, nil)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// Stand-alone: three radio links = 2·(d4+d5+d6) ≈ 591.65.
	var p2pCost float64
	for _, ch := range ids {
		p2pCost += 2 * cg.Distance(ch)
	}
	if cand.Cost >= p2pCost {
		t.Errorf("merged %v should beat p2p %v", cand.Cost, p2pCost)
	}
	t.Logf("merged {a4,a5,a6} cost = %.2f vs p2p %.2f (saving %.1f%%)",
		cand.Cost, p2pCost, 100*(1-cand.Cost/p2pCost))
	// Mux should sit at D (all three sources there).
	if d, _ := workloads.WANNodePosition("D"); !cand.MuxPos.AlmostEq(d, 0.5) {
		t.Errorf("mux at %v, want near D %v", cand.MuxPos, d)
	}
}
