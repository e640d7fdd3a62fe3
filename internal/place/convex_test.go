package place

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/workloads"
)

// Validation of the convex fast path: the alternating-weighted-median
// seed must match (within tolerance) the best value found by a brute
// grid search over hub positions.

func TestConvexSeedMatchesGridSearch(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	lib := workloads.WANLibrary()
	for trial := 0; trial < 10; trial++ {
		cg := model.NewConstraintGraph(geom.Euclidean)
		k := 2 + r.Intn(2)
		var ids []model.ChannelID
		for i := 0; i < k; i++ {
			u := cg.MustAddPort(model.Port{
				Name:     "u" + string(rune('0'+i)),
				Position: geom.Pt(r.Float64()*10, r.Float64()*10),
			})
			v := cg.MustAddPort(model.Port{
				Name:     "v" + string(rune('0'+i)),
				Position: geom.Pt(60+r.Float64()*10, r.Float64()*10),
			})
			ids = append(ids, cg.MustAddChannel(model.Channel{
				Name: "c" + string(rune('0'+i)), From: u, To: v,
				Bandwidth: 2 + r.Float64()*6,
			}))
		}
		cand, err := Optimize(cg, lib, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Coarse 2-level grid search over (x1, x2).
		best := math.Inf(1)
		evalAt := func(x1, x2 geom.Point) float64 {
			c, err := priceAt(cg, lib, ids, x1, x2)
			if err != nil {
				return math.Inf(1)
			}
			return c
		}
		var bestX1, bestX2 geom.Point
		for gx1 := 0.0; gx1 <= 70; gx1 += 7 {
			for gy1 := 0.0; gy1 <= 10; gy1 += 5 {
				for gx2 := 0.0; gx2 <= 70; gx2 += 7 {
					for gy2 := 0.0; gy2 <= 10; gy2 += 5 {
						x1, x2 := geom.Pt(gx1, gy1), geom.Pt(gx2, gy2)
						if c := evalAt(x1, x2); c < best {
							best, bestX1, bestX2 = c, x1, x2
						}
					}
				}
			}
		}
		// Refine the grid winner locally so the comparison is fair.
		for step := 3.5; step > 0.01; step /= 2 {
			improved := true
			for improved {
				improved = false
				for _, d := range []geom.Point{{X: step}, {X: -step}, {Y: step}, {Y: -step}} {
					for _, m := range [][2]geom.Point{
						{bestX1.Add(d), bestX2}, {bestX1, bestX2.Add(d)},
					} {
						if c := evalAt(m[0], m[1]); c < best-1e-12 {
							best, bestX1, bestX2 = c, m[0], m[1]
							improved = true
						}
					}
				}
			}
		}
		if cand.Cost > best*(1+1e-4) {
			t.Fatalf("trial %d: convex path %v worse than grid search %v", trial, cand.Cost, best)
		}
	}
}

// priceAt evaluates the merged structure cost at fixed hub positions
// (mirrors Optimize's eval; reimplemented here so the test does not
// depend on internals).
func priceAt(cg *model.ConstraintGraph, lib *library.Library, ids []model.ChannelID, x1, x2 geom.Point) (float64, error) {
	norm := cg.Norm()
	var trunkBW float64
	for _, ch := range ids {
		trunkBW += cg.Bandwidth(ch)
	}
	mux, _ := lib.CheapestNode(library.Mux)
	demux, _ := lib.CheapestNode(library.Demux)
	total := mux.Cost + demux.Cost
	trunk, err := bestPlanSingle(norm.Distance(x1, x2), trunkBW, lib)
	if err != nil {
		return 0, err
	}
	total += trunk
	for _, ch := range ids {
		c := cg.Channel(ch)
		in, err := bestPlanAny(norm.Distance(cg.Position(c.From), x1), c.Bandwidth, lib)
		if err != nil {
			return 0, err
		}
		out, err := bestPlanAny(norm.Distance(x2, cg.Position(c.To)), c.Bandwidth, lib)
		if err != nil {
			return 0, err
		}
		total += in + out
	}
	return total, nil
}

func bestPlanSingle(d, b float64, lib *library.Library) (float64, error) {
	best := math.Inf(1)
	for _, l := range lib.Links {
		if l.Bandwidth < b {
			continue
		}
		if !l.CanSpan(d) {
			continue // WAN links are unbounded, so this never triggers
		}
		if c := l.Cost(d); c < best {
			best = c
		}
	}
	if math.IsInf(best, 1) {
		return 0, errNoLink
	}
	return best, nil
}

func bestPlanAny(d, b float64, lib *library.Library) (float64, error) {
	best := math.Inf(1)
	for _, l := range lib.Links {
		chains := 1
		if l.Bandwidth < b {
			chains = int(math.Ceil(b/l.Bandwidth - 1e-12))
		}
		if !l.CanSpan(d) {
			continue
		}
		if c := float64(chains) * l.Cost(d); c < best {
			best = c
		}
	}
	if math.IsInf(best, 1) {
		return 0, errNoLink
	}
	return best, nil
}

var errNoLink = errorString("no feasible link")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestConvexSeedHonoursMaxChains: the seed must weight every piece at
// the rate pricing charges for it, under the piece's chain bound.
// Three 5 Mbps channels ride one radio each at 1/m, and their 15 Mbps
// trunk would cost 2/m as two parallel radios, but a trunk is one
// chain, so it costs 2.5/m on optical. Each hub then sits on the axis where its three legs' pulls
// balance the trunk's, 2s/√(s²+h²) + 1 = 2.5 at distance s from its
// ports, so s = h·√(9/7). Weighting the trunk at 2/m would put the
// seed hubs at s = h/√3 instead.
func TestConvexSeedHonoursMaxChains(t *testing.T) {
	lib := &library.Library{
		Links: []library.Link{
			{Name: "radio", Bandwidth: 11, MaxSpan: math.Inf(1), CostPerLength: 1},
			{Name: "optical", Bandwidth: 1000, MaxSpan: math.Inf(1), CostPerLength: 2.5},
		},
		Nodes: []library.Node{{Name: "mux", Kind: library.Mux}, {Name: "demux", Kind: library.Demux}},
	}
	const length, h = 100.0, 5.0
	cg := model.NewConstraintGraph(geom.Euclidean)
	var ids []model.ChannelID
	for i, y := range []float64{-h, 0, h} {
		name := string(rune('0' + i))
		u := cg.MustAddPort(model.Port{Name: "u" + name, Position: geom.Pt(0, y)})
		v := cg.MustAddPort(model.Port{Name: "v" + name, Position: geom.Pt(length, y)})
		ids = append(ids, cg.MustAddChannel(model.Channel{Name: "c" + name, From: u, To: v, Bandwidth: 5}))
	}
	s := h * math.Sqrt(9.0/7)
	sc := &Scratch{}
	stage(cg, lib, ids, sc)
	seed, ok := convexSeed(cg.Norm(), lib, sc.sources, sc.dests, sc.access, &sc.trunk, nil, sc)
	if !ok {
		t.Fatal("convex seed declined a length-priced library")
	}
	if want := [2]geom.Point{geom.Pt(s, 0), geom.Pt(length-s, 0)}; geom.Euclidean.Distance(seed[0], want[0])+geom.Euclidean.Distance(seed[1], want[1]) > 1e-3 {
		t.Errorf("seed hubs %v, want %v", seed, want)
	}
	cand, err := Optimize(cg, lib, ids, sc)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*(2*math.Hypot(s, h)+s) + 2.5*(length-2*s); math.Abs(cand.Cost-want) > 1e-6*want {
		t.Errorf("cost %.9f, want %.9f (mux %v, demux %v)", cand.Cost, want, cand.MuxPos, cand.DemuxPos)
	}
}
