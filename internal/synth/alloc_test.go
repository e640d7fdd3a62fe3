package synth

import (
	"testing"

	"repro/internal/library"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/p2p"
	"repro/internal/place"
	"repro/internal/workloads"
)

// The checked-in allocation budget for candidate pricing, enforced by
// `make bench-alloc` (part of the CI bench-gate job).
//
// Once the pricing lane's place.Scratch has grown to the largest
// merging (its buffers and cost curves), the only remaining
// allocations are the returned candidate itself — its struct, the
// Channels copy, and the two exact-capacity access-plan slices — which
// is 4 allocations per candidate on both the Euclidean (WAN) and
// Manhattan (NoC) pricing paths. The budget leaves headroom of two for
// toolchain drift while still pinning the ≥50% reduction over the
// pre-flattening implementation, which measured 21.68 allocations per
// candidate on the same WAN workload (per-iteration probe-slice
// literals in the pattern search, per-call direction slices, unpooled
// endpoint staging, and sync.Map boxing).
const allocBudgetPerCandidate = 6.0

// enumeratedSets returns every merging the workload enumerates.
func enumeratedSets(t testing.TB, cg *model.ConstraintGraph, lib *library.Library) [][]model.ChannelID {
	t.Helper()
	enum, err := merging.Enumerate(cg, lib, merging.Options{Policy: merging.MaxIndexRef})
	if err != nil {
		t.Fatal(err)
	}
	var sets [][]model.ChannelID
	for k := 2; k < len(enum.ByK); k++ {
		sets = append(sets, enum.ByK[k]...)
	}
	if len(sets) == 0 {
		t.Fatal("workload enumerates no mergings")
	}
	return sets
}

// pricingAllocsPerCandidate prices every enumerated merging of the
// workload under testing.AllocsPerRun, whose own warm-up run grows the
// scratch, and returns the average allocation count per priced
// candidate.
func pricingAllocsPerCandidate(t testing.TB, cg *model.ConstraintGraph, lib *library.Library) float64 {
	t.Helper()
	sets := enumeratedSets(t, cg, lib)
	sc := &place.Scratch{}
	allocs := testing.AllocsPerRun(10, func() {
		for _, set := range sets {
			if _, err := place.Optimize(cg, lib, set, sc); err != nil {
				t.Fatal(err)
			}
		}
	})
	perCand := allocs / float64(len(sets))
	t.Logf("%d candidates, %.1f allocs/run, %.2f allocs/candidate (budget %.1f)",
		len(sets), allocs, perCand, allocBudgetPerCandidate)
	return perCand
}

// TestAllocBudgetWAN pins the pricing allocation budget on the
// paper's Euclidean WAN instance (the E5 workload).
func TestAllocBudgetWAN(t *testing.T) {
	if got := pricingAllocsPerCandidate(t, workloads.WAN(), workloads.WANLibrary()); got > allocBudgetPerCandidate {
		t.Errorf("WAN pricing allocates %.2f/candidate, budget %.1f", got, allocBudgetPerCandidate)
	}
}

// TestAllocBudgetNoC pins the pricing allocation budget on the
// Manhattan NoC instance (the E14 workload), which exercises the L1
// median scratch path.
func TestAllocBudgetNoC(t *testing.T) {
	if got := pricingAllocsPerCandidate(t, workloads.NoC(), workloads.NoCLibrary()); got > allocBudgetPerCandidate {
		t.Errorf("NoC pricing allocates %.2f/candidate, budget %.1f", got, allocBudgetPerCandidate)
	}
}

// boundAllocsPerCall bounds every enumerated merging of the workload
// with place.LowerBound under testing.AllocsPerRun, whose warm-up run
// grows the scratch, and returns the average allocation count per
// call. Synthesis bounds every merging before placing it, so the bound
// must not allocate: its budget is zero.
func boundAllocsPerCall(t *testing.T, cg *model.ConstraintGraph, lib *library.Library) float64 {
	t.Helper()
	sets := enumeratedSets(t, cg, lib)
	sc := &place.Scratch{}
	allocs := testing.AllocsPerRun(10, func() {
		for _, set := range sets {
			place.LowerBound(cg, lib, set, sc)
		}
	})
	t.Logf("%d mergings, %.1f allocs/run", len(sets), allocs)
	return allocs / float64(len(sets))
}

// TestAllocBudgetLowerBoundWAN pins place.LowerBound at zero
// allocations per call on the Euclidean WAN instance (Weiszfeld trial
// hubs).
func TestAllocBudgetLowerBoundWAN(t *testing.T) {
	if got := boundAllocsPerCall(t, workloads.WAN(), workloads.WANLibrary()); got != 0 {
		t.Errorf("WAN lower bound allocates %.2f/call, budget 0", got)
	}
}

// TestAllocBudgetLowerBoundNoC pins place.LowerBound at zero
// allocations per call on the Manhattan NoC instance (scratch-backed
// L1 medians).
func TestAllocBudgetLowerBoundNoC(t *testing.T) {
	if got := boundAllocsPerCall(t, workloads.NoC(), workloads.NoCLibrary()); got != 0 {
		t.Errorf("NoC lower bound allocates %.2f/call, budget 0", got)
	}
}

// TestAllocBudgetProofWAN pins a dominated-merging proof at zero
// allocations: place.OptimizeBelow at each WAN merging's
// point-to-point sum, timed over the mergings it proves dominated
// (before placement or during the convex seed's rounds), allocates
// nothing once the scratch has grown.
func TestAllocBudgetProofWAN(t *testing.T) {
	cg, lib := workloads.WAN(), workloads.WANLibrary()
	sc := &place.Scratch{}
	var sets [][]model.ChannelID
	var sums []float64
	for _, set := range enumeratedSets(t, cg, lib) {
		var sum float64
		for _, ch := range set {
			plan, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
			if err != nil {
				t.Fatal(err)
			}
			sum += plan.Cost
		}
		if _, dominated, _ := place.OptimizeBelow(cg, lib, set, sc, sum); dominated {
			sets, sums = append(sets, set), append(sums, sum)
		}
	}
	if len(sets) == 0 {
		t.Fatal("no WAN merging proved dominated")
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i, set := range sets {
			place.OptimizeBelow(cg, lib, set, sc, sums[i])
		}
	})
	t.Logf("%d proofs, %.1f allocs/run", len(sets), allocs)
	if allocs != 0 {
		t.Errorf("WAN dominance proofs allocate %.1f per run, budget 0", allocs)
	}
}
