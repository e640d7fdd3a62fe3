package place

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/num"
	"repro/internal/p2p"
	"repro/internal/soc"
	"repro/internal/workloads"
)

// reproject copies cg's ports and channels into a graph measured under
// norm.
func reproject(cg *model.ConstraintGraph, norm geom.Norm) *model.ConstraintGraph {
	out := model.NewConstraintGraph(norm)
	for i := 0; i < cg.NumPorts(); i++ {
		out.MustAddPort(cg.Port(model.PortID(i)))
	}
	for _, ch := range cg.ChannelIDs() {
		out.MustAddChannel(cg.Channel(ch))
	}
	return out
}

// p2pSum returns the channels' summed point-to-point cost, or ok=false
// when a channel has no point-to-point plan (synthesis then fails
// before any merging is priced).
func p2pSum(cg *model.ConstraintGraph, lib *library.Library, set []model.ChannelID) (float64, bool) {
	var sum float64
	for _, ch := range set {
		plan, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
		if err != nil {
			return 0, false
		}
		sum += plan.Cost
	}
	return sum, true
}

// checkBound asserts the properties the dominated-merging skip rests
// on for one merging, every call going through sc. Optimize matches
// the reference search (matchReference). The bound lies
// under the cost Optimize finds (within the Eps the dominance test
// forgives), and a merging Optimize rejects is never bounded at or
// above its point-to-point sum. OptimizeBelow at bar proves dominated
// only a merging whose placed cost reaches the bar, and returns
// exactly Optimize's candidate for every other. It reports whether
// OptimizeBelow proved the merging dominated, the bound, and
// Optimize's cost (+Inf when it rejects the merging).
func checkBound(t *testing.T, cg *model.ConstraintGraph, lib *library.Library, set []model.ChannelID, sc *Scratch, sum, bar float64) (dominated bool, lb, cost float64) {
	t.Helper()
	lb = LowerBound(cg, lib, set, sc)
	cand, err := Optimize(cg, lib, set, sc)
	matchReference(t, cg, lib, set, cand, err)
	below, dominated, errBelow := OptimizeBelow(cg, lib, set, sc, bar)
	cost = math.Inf(1)
	if err == nil {
		cost = cand.Cost
	}
	switch {
	case math.IsNaN(lb):
		t.Fatalf("%v: bound is NaN", set)
	case err != nil && num.GreaterEq(lb, sum):
		t.Fatalf("%v: Optimize rejects the merging (%v) but the bound %v reaches the point-to-point sum %v", set, err, lb, sum)
	case err == nil && lb > cand.Cost+num.Eps:
		t.Fatalf("%v: bound %.15g exceeds the placed cost %.15g by %g", set, lb, cand.Cost, lb-cand.Cost)
	case dominated && (below != nil || errBelow != nil):
		t.Fatalf("%v: proved dominated but returned candidate %v, error %v", set, below, errBelow)
	case dominated && (err != nil || !num.GreaterEq(cand.Cost, bar)):
		t.Fatalf("%v: proved dominated, but Optimize returns %v (error %v) against the bar %.15g", set, cand, err, bar)
	case !dominated && (err == nil) != (errBelow == nil):
		t.Fatalf("%v: Optimize error %v, OptimizeBelow error %v", set, err, errBelow)
	case !dominated && err == nil && (math.Float64bits(below.Cost) != math.Float64bits(cand.Cost) ||
		!below.MuxPos.Eq(cand.MuxPos) || !below.DemuxPos.Eq(cand.DemuxPos)):
		t.Fatalf("%v: OptimizeBelow places at %v %v for %.17g, Optimize at %v %v for %.17g",
			set, below.MuxPos, below.DemuxPos, below.Cost, cand.MuxPos, cand.DemuxPos, cand.Cost)
	}
	return dominated, lb, cost
}

// TestLowerBoundAdmissible sweeps seeded random WAN and SoC instances,
// re-projected into all three norms, across the five workload
// libraries, and checks every enumerated merging with checkBound in
// the four ways placement is called: through one scratch reused across
// mergings (as synthesis's pricing lanes do) or a fresh one per call
// (as the greedy baseline does), and below the point-to-point sum or
// below no bar (Optimize, as the baseline calls it). Neither choice may
// change a result: every way must find the bound and the placed cost
// of the first, bit for bit. The bound must lie under the placement
// optimum, not only under what pattern search finds, so step-cost
// libraries (where placement is heuristic) are included.
func TestLowerBoundAdmissible(t *testing.T) {
	libs := map[string]*library.Library{
		"wan": workloads.WANLibrary(), "lan": workloads.LANLibrary(), "mcm": workloads.MCMLibrary(),
		"noc": workloads.NoCLibrary(), "180nm": soc.Tech180nm().Library(),
	}
	instances := map[string]*model.ConstraintGraph{
		"wan1": workloads.RandomWAN(workloads.RandomWANConfig{Seed: 1, Clusters: 3, Channels: 6}),
		"wan2": workloads.RandomWAN(workloads.RandomWANConfig{Seed: 2, Clusters: 2, Channels: 5}),
		"soc1": workloads.RandomSoC(workloads.RandomSoCConfig{Seed: 1, Modules: 6, Channels: 6}),
		"soc2": workloads.RandomSoC(workloads.RandomSoCConfig{Seed: 2, Modules: 5, Channels: 5}),
	}
	shared := &Scratch{}
	calls := []struct {
		sc    *Scratch
		noBar bool
	}{{shared, false}, {nil, false}, {shared, true}, {nil, true}}
	var checked, skipped int
	for _, libName := range []string{"wan", "lan", "mcm", "noc", "180nm"} {
		lib := libs[libName]
		for _, instName := range []string{"wan1", "wan2", "soc1", "soc2"} {
			for _, norm := range []geom.Norm{geom.Euclidean, geom.Manhattan, geom.Chebyshev} {
				cg := reproject(instances[instName], norm)
				enum, err := merging.Enumerate(cg, lib, merging.Options{})
				if err != nil {
					t.Fatal(err)
				}
				first := map[string][2]float64{} // bound and cost by merging, from opt0
				for i, call := range calls {
					t.Run(fmt.Sprintf("%s/%s/%s/opt%d", libName, instName, norm.Name(), i), func(t *testing.T) {
						for k := 2; k <= cg.NumChannels(); k++ {
							for _, set := range enum.ByK[k] {
								sum, ok := p2pSum(cg, lib, set)
								if !ok {
									return
								}
								bar := sum
								if call.noBar {
									bar = math.Inf(1)
								}
								checked++
								dominated, lb, cost := checkBound(t, cg, lib, set, call.sc, sum, bar)
								if dominated {
									skipped++
								}
								key := fmt.Sprint(set)
								if i == 0 {
									first[key] = [2]float64{lb, cost}
								} else if f, ok := first[key]; ok && (math.Float64bits(f[0]) != math.Float64bits(lb) || math.Float64bits(f[1]) != math.Float64bits(cost)) {
									t.Fatalf("%v: bound %.17g and cost %.17g, but %.17g and %.17g through opt0", set, lb, cost, f[0], f[1])
								}
							}
						}
					})
				}
			}
		}
	}
	t.Logf("%d mergings checked, %d proved dominated", checked, skipped)
	if skipped == 0 || skipped == checked {
		t.Errorf("%d of %d mergings proved dominated; the sweep should exercise both outcomes", skipped, checked)
	}
}

// TestLowerBoundProvesWANPairsDominated: on the paper's WAN every pair
// merging is dominated, because the optical trunk's 4 $/km equals the
// two radio legs' 2+2 $/km. The λ split alone proves it, so the bound
// skips every 2-way merging there.
func TestLowerBoundProvesWANPairsDominated(t *testing.T) {
	cg, lib := workloads.WAN(), workloads.WANLibrary()
	enum, err := merging.Enumerate(cg, lib, merging.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(enum.ByK[2]) == 0 {
		t.Fatal("WAN enumerates no pair mergings")
	}
	for _, set := range enum.ByK[2] {
		sum, _ := p2pSum(cg, lib, set)
		if lb := LowerBound(cg, lib, set, nil); !num.NoBetter(lb, sum) {
			t.Errorf("%v: bound %.12g below point-to-point sum %.12g", set, lb, sum)
		}
	}
}

// TestLowerBoundProvesWANSharedEndpointMergings: on the paper's WAN,
// the channels of [0 2 3] all start or end at node A, and those of
// [3 4 6], [3 5 6] and [4 5 6] all start at node D. Both optimal hubs
// sit on that node, where the merging costs exactly its point-to-point
// sum, and placement finds it within 1e-9 relative of the sum. Only
// duals that hand the pieces on the hub the residual flow (Kuhn's
// condition at a site) certify that; the bound alone must reach the
// sum, so OptimizeBelow proves each dominated before any placement.
func TestLowerBoundProvesWANSharedEndpointMergings(t *testing.T) {
	cg, lib := workloads.WAN(), workloads.WANLibrary()
	for _, set := range [][]model.ChannelID{{0, 2, 3}, {3, 4, 6}, {3, 5, 6}, {4, 5, 6}} {
		sum, _ := p2pSum(cg, lib, set)
		if lb := LowerBound(cg, lib, set, nil); !num.GreaterEq(lb, sum) {
			t.Errorf("%v: bound %.12g below point-to-point sum %.12g", set, lb, sum)
		}
		if cand, dominated, err := OptimizeBelow(cg, lib, set, nil, sum); !dominated || cand != nil || err != nil {
			t.Errorf("%v: OptimizeBelow = %v, %v, %v; want proved dominated", set, cand, dominated, err)
		}
	}
}

// TestLowerBoundRejectsUnplaceable: every way Optimize can reject a
// merging yields a −Inf bound, so synthesis never skips it as
// dominated.
func TestLowerBoundRejectsUnplaceable(t *testing.T) {
	cg, ids := fanInstance(t)
	wan := workloads.WANLibrary()
	for _, tc := range []struct {
		name string
		lib  *library.Library
		ids  []model.ChannelID
	}{
		{"single channel", wan, ids[:1]},
		{"no switches", &library.Library{Links: wan.Links}, ids},
		// 30 Mbps on one chain needs the optical link.
		{"trunk overload", &library.Library{Links: wan.Links[:1], Nodes: wan.Nodes}, ids},
		// Without repeaters a 0.6-span wire cannot reach the far
		// cluster, so every start Optimize tries is infeasible.
		{"unreachable", &library.Library{
			Links: []library.Link{{Name: "wire", Bandwidth: 100, MaxSpan: 0.6, CostFixed: 1}},
			Nodes: wan.Nodes,
		}, ids},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Optimize(cg, tc.lib, tc.ids, nil); err == nil {
				t.Fatal("Optimize accepts the merging; the case is mis-built")
			}
			if lb := LowerBound(cg, tc.lib, tc.ids, nil); !math.IsInf(lb, -1) {
				t.Errorf("bound = %v, want -Inf", lb)
			}
		})
	}
}

// FuzzLowerBound decodes a small merging instance from the fuzz bytes
// (norm, one or two links, optional repeater and switches, two to four
// channels) and checks it with checkBound at its point-to-point sum,
// each call with a fresh scratch: the bound lies under Optimize's
// cost, a merging Optimize rejects is never bounded at or above its
// point-to-point sum, and OptimizeBelow proves only dominated mergings
// and otherwise returns Optimize's candidate. The seed corpus in
// testdata/fuzz/FuzzLowerBound covers each norm and arity with
// bounded, unbounded and unplaceable mergings, and in each norm three
// hub shapes the certificate treats specially: both hubs collapsed on
// a shared source, the demux on a shared destination with the hubs
// apart, and both hubs collapsed where two channels cross.
func FuzzLowerBound(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cg, lib, ok := decodeBoundInstance(data)
		if !ok {
			return
		}
		set := cg.ChannelIDs()
		sum, ok := p2pSum(cg, lib, set)
		if !ok {
			return
		}
		checkBound(t, cg, lib, set, nil, sum, sum)
	})
}

// decodeBoundInstance reads FuzzLowerBound's instance from the bytes:
// a norm byte, a layout byte whose bit 6 asks for a second link, four
// bytes per link and five per channel (two to four channels). The
// layout byte's low six bits are ignored: they selected placement
// options that no longer exist, and skipping them keeps every
// committed corpus file decoding to its instance. ok is false when the
// bytes run out early or describe an invalid library. Coordinates,
// costs and bandwidths are small multiples of fixed units, so values
// often land on segment and chain-count boundaries.
func decodeBoundInstance(data []byte) (cg *model.ConstraintGraph, lib *library.Library, ok bool) {
	take := func(n int) []byte {
		if len(data) < n {
			return nil
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	h := take(2)
	if h == nil {
		return nil, nil, false
	}
	norms := []geom.Norm{geom.Euclidean, geom.Manhattan, geom.Chebyshev}
	cg = model.NewConstraintGraph(norms[int(h[0])%len(norms)])
	lib = &library.Library{}
	for i := 0; i <= int(h[1]>>6)&1; i++ {
		l := take(4)
		if l == nil {
			return nil, nil, false
		}
		link := library.Link{
			Name:          fmt.Sprintf("l%d", i),
			Bandwidth:     1 + float64(l[0]),
			MaxSpan:       math.Inf(1),
			CostFixed:     float64(l[2]&0x0f) / 4,
			CostPerLength: float64(l[2]>>4) / 8,
		}
		if l[1] != 0 {
			link.MaxSpan = float64(l[1]) / 8
		}
		if link.CostFixed == 0 && link.CostPerLength == 0 {
			link.CostPerLength = 1
		}
		lib.Links = append(lib.Links, link)
		if i > 0 {
			continue
		}
		// The first link's last byte sets which of repeater, mux and
		// demux exist, and their costs.
		for bit, kind := range []library.NodeKind{library.Repeater, library.Mux, library.Demux} {
			if l[3]&(1<<bit) != 0 {
				lib.Nodes = append(lib.Nodes, library.Node{Name: kind.String(), Kind: kind, Cost: float64(l[3]>>(4+bit)) / 4})
			}
		}
	}
	for i := 0; i < 4; i++ {
		c := take(5)
		if c == nil {
			break
		}
		u := cg.MustAddPort(model.Port{Name: fmt.Sprintf("u%d", i), Position: geom.Pt(float64(c[0])/4, float64(c[1])/4)})
		v := cg.MustAddPort(model.Port{Name: fmt.Sprintf("v%d", i), Position: geom.Pt(float64(c[2])/4, float64(c[3])/4)})
		cg.MustAddChannel(model.Channel{Name: fmt.Sprintf("c%d", i), From: u, To: v, Bandwidth: 0.5 + float64(c[4])/8})
	}
	return cg, lib, cg.NumChannels() >= 2 && lib.Validate() == nil
}
