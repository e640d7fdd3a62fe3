package merging_test

// Empirical probe of Theorem 3.1's reach under the two-hub (mux →
// trunk → demux) merging realization.
//
// Finding: a strictly profitable triple does NOT always contain a
// cost-neutral pair under this realization — a pair merge pays the full
// trunk-weight (equal to its two branches) plus access detours, while a
// triple amortizes the trunk over three branches. The paper's own WAN
// instance sits exactly on the boundary (its pairs are gain-zero), and
// random instances fall strictly below it.
//
// This is precisely why the enumeration in this package does NOT grow
// candidates hierarchically (requiring every sub-subset to be a
// candidate): it enumerates all subsets of the still-active arcs, and
// Theorem 3.1 elimination is driven by the *geometric lemma* tests —
// whose monotonicity is provable — never by pricing outcomes. The test
// below validates the guarantee the flow actually relies on: every
// strictly profitable triple survives lemma pruning and is present in
// the candidate set.

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/p2p"
	"repro/internal/place"
)

func TestProfitableTriplesSurviveLemmaPruning(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	lib := soundnessLib()
	profitableTriples := 0
	strictPairLoss := 0

	for trial := 0; trial < 60; trial++ {
		// Clustered instances so profitable triples actually occur.
		cg := model.NewConstraintGraph(geom.Euclidean)
		for i := 0; i < 4; i++ {
			u := cg.MustAddPort(model.Port{
				Name:     "u" + string(rune('0'+i)),
				Position: geom.Pt(r.Float64()*6, r.Float64()*6),
			})
			v := cg.MustAddPort(model.Port{
				Name:     "v" + string(rune('0'+i)),
				Position: geom.Pt(90+r.Float64()*10, r.Float64()*10),
			})
			cg.MustAddChannel(model.Channel{
				Name: "a" + string(rune('0'+i)), From: u, To: v,
				Bandwidth: 2 + r.Float64()*8,
			})
		}
		p2pCost := make([]float64, 4)
		for i := 0; i < 4; i++ {
			ch := model.ChannelID(i)
			plan, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
			if err != nil {
				t.Fatal(err)
			}
			p2pCost[i] = plan.Cost
		}
		mergeCost := func(ids []model.ChannelID) (float64, bool) {
			cand, err := place.Optimize(cg, lib, ids, nil)
			if err != nil {
				return 0, false
			}
			return cand.Cost, true
		}
		// Enumerate candidates under both reference policies.
		strict, err := merging.Enumerate(cg, lib, merging.Options{Policy: merging.AnyRef})
		if err != nil {
			t.Fatal(err)
		}
		inCandidates := func(ids []model.ChannelID) bool {
			for _, set := range strict.ByK[len(ids)] {
				match := true
				for i := range set {
					if set[i] != ids[i] {
						match = false
						break
					}
				}
				if match {
					return true
				}
			}
			return false
		}

		for x := 0; x < 4; x++ {
			for y := x + 1; y < 4; y++ {
				for z := y + 1; z < 4; z++ {
					ids := []model.ChannelID{model.ChannelID(x), model.ChannelID(y), model.ChannelID(z)}
					cost, ok := mergeCost(ids)
					alt := p2pCost[x] + p2pCost[y] + p2pCost[z]
					if !ok || cost >= alt-1e-6*alt {
						continue // not strictly profitable
					}
					profitableTriples++
					// The guarantee the flow relies on: the profitable
					// triple must be in the candidate set even under the
					// strongest sound pruning.
					if !inCandidates(ids) {
						t.Fatalf("trial %d: profitable triple %v pruned away (cost %v < p2p %v)",
							trial, ids, cost, alt)
					}
					// Document the structural finding: count triples
					// where some member has only strictly-losing pairs.
					for _, a := range ids {
						neutral := false
						for _, b := range ids {
							if a == b {
								continue
							}
							pc, ok := mergeCost([]model.ChannelID{a, b})
							if ok && pc <= p2pCost[a]+p2pCost[b]+1e-3*(p2pCost[a]+p2pCost[b]) {
								neutral = true
								break
							}
						}
						if !neutral {
							strictPairLoss++
							break
						}
					}
				}
			}
		}
	}
	if profitableTriples < 10 {
		t.Fatalf("only %d profitable triples sampled; broaden the generator", profitableTriples)
	}
	// The structural finding must actually manifest, otherwise this test
	// degrades into documentation of nothing.
	if strictPairLoss == 0 {
		t.Error("expected at least one profitable triple whose pairs all lose strictly")
	}
	t.Logf("profitable triples: %d, of which %d have a member with only strictly-losing pairs",
		profitableTriples, strictPairLoss)
}
