package place

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/soc"
	"repro/internal/workloads"
)

// TestPatternSearchMatchesReference places every merging of two to
// four channels of seeded random WAN and SoC instances, re-projected
// into all three norms, under the five workload libraries, and
// requires Optimize's cost and hubs to equal referenceOptimize's bit
// for bit. The WAN and LAN libraries take the convex path, the others
// the general multistart path. A two-channel Manhattan merging with
// unequal bandwidths must skip a repeated start: its weighted-median
// start is the heavier channel's own endpoints. The reference runs
// every search to its step floor, so the match also pins the settled
// exit as exact; that exit must end searches in every sub-sweep of the
// step-cost libraries (180 nm, NoC) and in none of the length-priced
// ones (WAN, LAN, MCM), where every piece of nonzero length gets
// cheaper when shortened.
func TestPatternSearchMatchesReference(t *testing.T) {
	libs := map[string]*library.Library{
		"wan": workloads.WANLibrary(), "lan": workloads.LANLibrary(), "mcm": workloads.MCMLibrary(),
		"noc": workloads.NoCLibrary(), "180nm": soc.Tech180nm().Library(),
	}
	instances := map[string]*model.ConstraintGraph{
		"wan3": workloads.RandomWAN(workloads.RandomWANConfig{Seed: 3, Clusters: 3, Channels: 5}),
		"wan4": workloads.RandomWAN(workloads.RandomWANConfig{Seed: 4, Clusters: 2, Channels: 5}),
		"soc3": workloads.RandomSoC(workloads.RandomSoCConfig{Seed: 3, Modules: 6, Channels: 5}),
		"soc4": workloads.RandomSoC(workloads.RandomSoCConfig{Seed: 4, Modules: 4, Channels: 5}),
	}
	stepCost := map[string]bool{"noc": true, "180nm": true}
	var convex, general, repeats int
	var settled int64
	sc := &Scratch{}
	for _, libName := range []string{"wan", "lan", "mcm", "noc", "180nm"} {
		lib := libs[libName]
		for _, instName := range []string{"wan3", "wan4", "soc3", "soc4"} {
			for _, norm := range []geom.Norm{geom.Euclidean, geom.Manhattan, geom.Chebyshev} {
				cg := reproject(instances[instName], norm)
				t.Run(fmt.Sprintf("%s/%s/%s", libName, instName, norm.Name()), func(t *testing.T) {
					swept := sc.Tally
					for _, set := range subsets(cg.ChannelIDs(), 2, 4) {
						before := sc.Tally
						cand, err := Optimize(cg, lib, set, sc)
						matchReference(t, cg, lib, set, cand, err)
						searched, skipped := sc.Tally.Starts-before.Starts, sc.Tally.RepeatedStarts-before.RepeatedStarts
						if searched+skipped == 1 {
							convex++
							continue
						}
						general++
						repeats += int(skipped)
						if len(set) == 2 && norm == geom.Manhattan && cg.Bandwidth(set[0]) != cg.Bandwidth(set[1]) && skipped == 0 {
							t.Errorf("%v: no repeated start skipped, but the weighted median of two unequal Manhattan channels is the heavier one's endpoints", set)
						}
					}
					n := sc.Tally.Settled - swept.Settled
					settled += n
					switch {
					case stepCost[libName] && n == 0:
						t.Errorf("no search settled on the step-cost %s library (%d searches)", libName, sc.Tally.Starts-swept.Starts)
					case !stepCost[libName] && n != 0:
						t.Errorf("%d searches settled on the length-priced %s library", n, libName)
					}
				})
			}
		}
	}
	t.Logf("%d convex-path and %d general-path mergings matched; %d repeated starts skipped, %d searches settled", convex, general, repeats, settled)
	if convex == 0 || general == 0 || repeats == 0 {
		t.Errorf("the sweep must exercise both paths and the repeated-start skip")
	}
}

// matchReference fails t unless Optimize's outcome for the merging,
// cand or err, is referenceOptimize's: the same cost and hubs, bit for
// bit, or an error exactly where the reference finds no finite cost.
func matchReference(t *testing.T, cg *model.ConstraintGraph, lib *library.Library, set []model.ChannelID, cand *Candidate, err error) {
	t.Helper()
	cost, x1, x2 := referenceOptimize(cg, lib, set)
	switch {
	case err != nil && !math.IsInf(cost, 1):
		t.Fatalf("%v: Optimize rejects the merging (%v), the reference places it at %v %v for %.17g", set, err, x1, x2, cost)
	case err != nil:
	case math.Float64bits(cand.Cost) != math.Float64bits(cost) || !sameBits(cand.MuxPos, x1) || !sameBits(cand.DemuxPos, x2):
		t.Fatalf("%v: Optimize places at %#v %#v for %.17g, the reference at %#v %#v for %.17g",
			set, cand.MuxPos, cand.DemuxPos, cand.Cost, x1, x2, cost)
	}
}

// sameBits reports whether p and q have identical coordinate bits.
func sameBits(p, q geom.Point) bool {
	return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
}

// subsets returns every subset of ids with lo to hi members, each in
// ascending order.
func subsets(ids []model.ChannelID, lo, hi int) [][]model.ChannelID {
	var out [][]model.ChannelID
	for mask := 1; mask < 1<<len(ids); mask++ {
		var set []model.ChannelID
		for i, id := range ids {
			if mask&(1<<i) != 0 {
				set = append(set, id)
			}
		}
		if len(set) >= lo && len(set) <= hi {
			out = append(out, set)
		}
	}
	return out
}

// referenceOptimize is the search Optimize ran before it shared piece
// costs between probes and skipped repeated starts: an eval closure
// that prices all 2k+1 pieces of every probe, and the free
// patternSearch below, run from every start. Both are kept verbatim as
// the oracle Optimize must match bit for bit. It returns the best cost
// the search finds and its hubs; the cost is +Inf exactly where
// Optimize rejects the merging as infeasible.
func referenceOptimize(cg *model.ConstraintGraph, lib *library.Library, channels []model.ChannelID) (float64, geom.Point, geom.Point) {
	mux, okM := lib.CheapestNode(library.Mux)
	demux, okD := lib.CheapestNode(library.Demux)
	if len(channels) < 2 || !okM || !okD {
		return math.Inf(1), geom.Point{}, geom.Point{}
	}
	sc := &Scratch{}
	stage(cg, lib, channels, sc)
	sources, dests, bws, access, trunk := sc.sources, sc.dests, sc.bws, sc.access, &sc.trunk
	norm := cg.Norm()

	// eval prices the structure at given hub positions without building
	// the full candidate (the search calls it thousands of times). Each
	// curve cost equals its BestPlan cost bit for bit and the sum runs
	// in build's order, so eval(x1, x2) is exactly build's total.
	eval := func(x1, x2 geom.Point) float64 {
		total := mux.Cost + demux.Cost + trunk.Cost(norm.Distance(x1, x2))
		for i := range access {
			total += access[i].Cost(norm.Distance(sources[i], x1)) + access[i].Cost(norm.Distance(x2, dests[i]))
		}
		return total
	}

	pts := append(append(sc.pts[:0], sources...), dests...)
	sc.pts = pts
	bb := geom.Bounds(pts)
	initStep := math.Max(bb.Width(), bb.Height())
	if initStep == 0 {
		initStep = 1
	}

	bestCost := math.Inf(1)
	var bestX1, bestX2 geom.Point

	if seed, ok := convexSeed(norm, lib, sources, dests, access, trunk, nil, sc); ok {
		bestCost, bestX1, bestX2 = patternSearch(eval, seed[0], seed[1], initStep*0.02, 20)
	} else {
		mopt := geom.MedianOptions{Scratch: &sc.median}
		starts := append(sc.starts[:0],
			[2]geom.Point{geom.WeightedMedian(norm, sources, bws, mopt),
				geom.WeightedMedian(norm, dests, bws, mopt)},
			[2]geom.Point{geom.Centroid(sources), geom.Centroid(dests)},
		)
		for i := range sources {
			starts = append(starts, [2]geom.Point{sources[i], dests[i]})
		}
		sc.starts = starts
		for _, s := range starts {
			if c, x1, x2 := patternSearch(eval, s[0], s[1], initStep, maxIter); c < bestCost {
				bestCost, bestX1, bestX2 = c, x1, x2
			}
		}
	}
	return bestCost, bestX1, bestX2
}

// patternSearch minimizes eval over the two hub positions with a
// shrinking compass pattern. It moves one hub at a time through the
// eight compass directions plus joint translations, returning the best
// cost and positions found. The three probe position-pairs per
// direction live in a fixed-size stack array — the former per-iteration
// slice literal was the single largest allocation source of candidate
// pricing (3 probes × 8 directions × ~10² iterations per Optimize).
func patternSearch(
	eval func(geom.Point, geom.Point) float64,
	x1, x2 geom.Point, step float64, maxIter int,
) (float64, geom.Point, geom.Point) {
	bestCost := eval(x1, x2)
	if math.IsInf(bestCost, 1) {
		return bestCost, x1, x2
	}
	tol := step * 1e-7
	for iter := 0; iter < maxIter && step > tol; iter++ {
		improved := false
		for _, d := range patternDirs {
			delta := d.Scale(step)
			moves := [3][2]geom.Point{
				{x1.Add(delta), x2},            // move mux
				{x1, x2.Add(delta)},            // move demux
				{x1.Add(delta), x2.Add(delta)}, // translate both
			}
			for _, m := range moves {
				if c := eval(m[0], m[1]); c < bestCost-1e-12 {
					bestCost = c
					x1, x2 = m[0], m[1]
					improved = true
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return bestCost, x1, x2
}
