package merging_test

// Soundness of the pruning theory against the pricing oracle: whenever
// Lemma 3.1 / Lemma 3.2 declares a set of arcs not k-way mergeable, the
// actual optimized merged implementation (place.Optimize) must never
// beat the summed optimum point-to-point implementations. This is the
// operational content of Definition 3.1 — a pruned set's merging is
// dominated — checked on hundreds of random instances.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/p2p"
	"repro/internal/place"
)

func soundnessLib() *library.Library {
	return &library.Library{
		Links: []library.Link{
			{Name: "radio", Bandwidth: 11, MaxSpan: math.Inf(1), CostPerLength: 2},
			{Name: "optical", Bandwidth: 1000, MaxSpan: math.Inf(1), CostPerLength: 4},
		},
		Nodes: []library.Node{
			{Name: "mux", Kind: library.Mux, Cost: 0},
			{Name: "demux", Kind: library.Demux, Cost: 0},
		},
	}
}

func randomInstance(r *rand.Rand, nch int) *model.ConstraintGraph {
	cg := model.NewConstraintGraph(geom.Euclidean)
	for i := 0; i < nch; i++ {
		u := cg.MustAddPort(model.Port{
			Name:     "u" + string(rune('0'+i)),
			Position: geom.Pt(r.Float64()*120, r.Float64()*120),
		})
		v := cg.MustAddPort(model.Port{
			Name:     "v" + string(rune('0'+i)),
			Position: geom.Pt(r.Float64()*120, r.Float64()*120),
		})
		cg.MustAddChannel(model.Channel{
			Name: "a" + string(rune('0'+i)), From: u, To: v,
			Bandwidth: 2 + r.Float64()*9,
		})
	}
	return cg
}

// TestLemma31SoundAgainstPricing: pruned pairs never merge profitably.
func TestLemma31SoundAgainstPricing(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	lib := soundnessLib()
	prunedChecked := 0
	for trial := 0; trial < 120; trial++ {
		cg := randomInstance(r, 2)
		gamma := merging.Gamma(cg)
		delta := merging.Delta(cg)
		if !merging.NotMergeablePair(gamma, delta, 0, 1) {
			continue
		}
		prunedChecked++
		var p2pSum float64
		for i := 0; i < 2; i++ {
			ch := model.ChannelID(i)
			plan, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
			if err != nil {
				t.Fatal(err)
			}
			p2pSum += plan.Cost
		}
		cand, err := place.Optimize(cg, lib, []model.ChannelID{0, 1}, nil)
		if err != nil {
			continue // merging infeasible: trivially sound
		}
		if cand.Cost < p2pSum-1e-6*p2pSum {
			t.Fatalf("trial %d: pruned pair merged cheaper: %.6f < %.6f (Γ=%.3f Δ=%.3f)",
				trial, cand.Cost, p2pSum, gamma.At(0, 1), delta.At(0, 1))
		}
	}
	if prunedChecked < 30 {
		t.Fatalf("only %d pruned pairs sampled; broaden the generator", prunedChecked)
	}
}

// TestLemma32SoundAgainstPricing: k-sets pruned under any reference
// policy never merge profitably (k = 3, 4).
func TestLemma32SoundAgainstPricing(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	lib := soundnessLib()
	prunedChecked := 0
	for trial := 0; trial < 150; trial++ {
		nch := 3 + r.Intn(2)
		cg := randomInstance(r, nch)
		gamma := merging.Gamma(cg)
		delta := merging.Delta(cg)
		var set []int
		var ids []model.ChannelID
		for i := 0; i < nch; i++ {
			set = append(set, i)
			ids = append(ids, model.ChannelID(i))
		}
		if !merging.NotMergeableSet(gamma, delta, set, merging.AnyRef) {
			continue
		}
		prunedChecked++
		var p2pSum float64
		for _, ch := range ids {
			plan, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
			if err != nil {
				t.Fatal(err)
			}
			p2pSum += plan.Cost
		}
		cand, err := place.Optimize(cg, lib, ids, nil)
		if err != nil {
			continue
		}
		if cand.Cost < p2pSum-1e-6*p2pSum {
			t.Fatalf("trial %d: pruned %d-set merged cheaper: %.6f < %.6f",
				trial, nch, cand.Cost, p2pSum)
		}
	}
	if prunedChecked < 30 {
		t.Fatalf("only %d pruned sets sampled; broaden the generator", prunedChecked)
	}
}

// TestTheorem32SoundAgainstPricing: bandwidth-pruned sets are never
// profitable — with the sum trunk rule they are outright infeasible or
// dominated.
func TestTheorem32SoundAgainstPricing(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	// A library whose fastest link is barely above single-channel
	// demand, so Theorem 3.2 actually triggers.
	lib := &library.Library{
		Links: []library.Link{
			{Name: "thin", Bandwidth: 12, MaxSpan: math.Inf(1), CostPerLength: 2},
		},
		Nodes: []library.Node{
			{Name: "mux", Kind: library.Mux, Cost: 0},
			{Name: "demux", Kind: library.Demux, Cost: 0},
		},
	}
	prunedChecked := 0
	for trial := 0; trial < 80; trial++ {
		cg := randomInstance(r, 3)
		bw := merging.BandwidthVector(cg)
		set := []int{0, 1, 2}
		if !merging.NotMergeableBandwidth(bw, set, lib) {
			continue
		}
		prunedChecked++
		var p2pSum float64
		feasible := true
		for i := 0; i < 3; i++ {
			ch := model.ChannelID(i)
			plan, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
			if err != nil {
				feasible = false
				break
			}
			p2pSum += plan.Cost
		}
		if !feasible {
			continue
		}
		cand, err := place.Optimize(cg, lib, []model.ChannelID{0, 1, 2}, nil)
		if err != nil {
			continue // infeasible merging: sound
		}
		if cand.Cost < p2pSum-1e-6*p2pSum {
			t.Fatalf("trial %d: bandwidth-pruned set merged cheaper: %.6f < %.6f",
				trial, cand.Cost, p2pSum)
		}
	}
	if prunedChecked < 10 {
		t.Fatalf("only %d pruned sets sampled", prunedChecked)
	}
}

// TestUnprunedSupersetNeverLosesOptimum: on random instances the
// enumeration with prunes and without prunes lead to the same selected
// minimum once priced (spot soundness of the whole pipeline, cheaper
// version of the E7 ablation).
func TestUnprunedSupersetNeverLosesOptimum(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	lib := soundnessLib()
	for trial := 0; trial < 10; trial++ {
		cg := randomInstance(r, 4)
		pruned, err := merging.Enumerate(cg, lib, merging.Options{Policy: merging.AnyRef})
		if err != nil {
			t.Fatal(err)
		}
		unpruned, err := merging.Enumerate(cg, lib, merging.Options{
			DisableLemma31: true, DisableLemma32: true,
			DisableTheorem31: true, DisableTheorem32: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		best := func(res *merging.Result) float64 {
			bestCost := math.Inf(1)
			for k := 2; k <= 4; k++ {
				for _, set := range res.ByK[k] {
					cand, err := place.Optimize(cg, lib, set, nil)
					if err != nil {
						continue
					}
					var alt float64
					for _, ch := range set {
						plan, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
						if err != nil {
							t.Fatal(err)
						}
						alt += plan.Cost
					}
					if gain := alt - cand.Cost; gain > 0 && cand.Cost < bestCost {
						bestCost = cand.Cost
					}
				}
			}
			return bestCost
		}
		bp, bu := best(pruned), best(unpruned)
		// Any profitable merging found without prunes must also be
		// found (or beaten) with prunes.
		if math.IsInf(bp, 1) != math.IsInf(bu, 1) || (!math.IsInf(bp, 1) && bp > bu+1e-6) {
			t.Fatalf("trial %d: pruning lost a profitable merging: pruned-best %v vs unpruned-best %v",
				trial, bp, bu)
		}
	}
}
