package synth

// Cross-validation of the covering step against the independent 0-1 ILP
// solver, at the level of the full synthesis flow: the paper observes
// Problem 2.1 "can be seen as a special case of 0-1 integer linear
// programming", so formulating the priced candidate set as an ILP must
// give the same optimum as the UCP branch-and-bound.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/ilp"
	"repro/internal/library"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/soc"
	"repro/internal/workloads"
)

// ilpOptimum formulates the report's candidate set as a 0-1 ILP
// (minimize Σ cost·x subject to per-channel coverage) and solves it.
func ilpOptimum(t *testing.T, rep *Report, numChannels int) float64 {
	t.Helper()
	costs := make([]float64, len(rep.Candidates))
	for i, c := range rep.Candidates {
		costs[i] = c.Cost
	}
	p, err := ilp.NewProblem(costs)
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < numChannels; ch++ {
		coeffs := make(map[int]float64)
		for i, c := range rep.Candidates {
			for _, cc := range c.Channels {
				if int(cc) == ch {
					coeffs[i] = 1
				}
			}
		}
		if err := p.AddConstraint(ilp.Constraint{Coeffs: coeffs, RHS: 1}); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return sol.Cost
}

func TestWANCoveringMatchesILP(t *testing.T) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	_, rep, err := Synthesize(cg, lib, Options{
		Merging: merging.Options{Policy: merging.MaxIndexRef},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ilpOptimum(t, rep, cg.NumChannels())
	if math.Abs(rep.Cost-want) > 1e-9 {
		t.Errorf("UCP optimum %v ≠ ILP optimum %v", rep.Cost, want)
	}
}

func TestRandomCoveringMatchesILPProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2002))
	lib := workloads.WANLibrary()
	for trial := 0; trial < 8; trial++ {
		cg := workloads.RandomWAN(workloads.RandomWANConfig{
			Seed: int64(300 + trial), Clusters: 2, Channels: 5 + r.Intn(3),
		})
		_, rep, err := Synthesize(cg, lib, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ilpOptimum(t, rep, cg.NumChannels())
		if math.Abs(rep.Cost-want) > 1e-9 {
			t.Fatalf("trial %d: UCP %v ≠ ILP %v", trial, rep.Cost, want)
		}
	}
}

// TestPruningSoundOnStepCostLibraries is the pruning-soundness
// oracle: on twelve seeded 7-channel SoC instances over the 180 nm,
// NoC, MCM and WAN libraries (merging arity at most 4), switching off
// Lemmas 3.1/3.2 and Theorems 3.1/3.2 must not find an architecture
// cheaper than the full flow's under either Lemma 3.2 reference policy
// (the max-index one the facade runs by default, and the strict one),
// and each run's covering cost must be the ILP optimum over its own
// candidates. Every run places mergings the same way (heuristically on
// step-cost libraries), so a difference can only come from a prune
// dropping a merging the optimum needs.
func TestPruningSoundOnStepCostLibraries(t *testing.T) {
	libs := []struct {
		name string
		lib  *library.Library
	}{
		{"180nm", soc.Tech180nm().Library()},
		{"noc", workloads.NoCLibrary()},
		{"mcm", workloads.MCMLibrary()},
		{"wan", workloads.WANLibrary()},
	}
	ablated := merging.Options{
		MaxK:           4,
		DisableLemma31: true, DisableLemma32: true,
		DisableTheorem31: true, DisableTheorem32: true,
	}
	checkILP := func(name string, seed int64, rep *Report, n int) {
		if want := ilpOptimum(t, rep, n); math.Abs(rep.Cost-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%s seed %d: UCP %.12g ≠ ILP %.12g over %d candidates", name, seed, rep.Cost, want, len(rep.Candidates))
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		cg := workloads.RandomSoC(workloads.RandomSoCConfig{Seed: seed, Channels: 7})
		for _, l := range libs {
			_, unpruned, err := Synthesize(cg, l.lib, Options{Merging: ablated, Workers: 1})
			if err != nil {
				t.Fatalf("%s seed %d without prunes: %v", l.name, seed, err)
			}
			checkILP(l.name, seed, unpruned, cg.NumChannels())
			for _, policy := range []merging.RefPolicy{merging.MaxIndexRef, merging.AnyRef} {
				_, pruned, err := Synthesize(cg, l.lib, Options{Merging: merging.Options{MaxK: 4, Policy: policy}, Workers: 1})
				if err != nil {
					t.Fatalf("%s seed %d policy %d: %v", l.name, seed, policy, err)
				}
				if unpruned.Cost < pruned.Cost*(1-1e-9) {
					t.Errorf("%s seed %d policy %d: without prunes %.9g, with prunes %.9g", l.name, seed, policy, unpruned.Cost, pruned.Cost)
				}
				checkILP(l.name, seed, pruned, cg.NumChannels())
			}
		}
	}
}

// TestLargeInstanceStress synthesizes a 16-channel clustered instance
// with a capped merge arity, verifies the result structurally and
// dynamically, and checks the basic optimality invariants.
func TestLargeInstanceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	cg := workloads.RandomWAN(workloads.RandomWANConfig{
		Seed: 99, Clusters: 4, Channels: 16,
	})
	lib := workloads.WANLibrary()
	ig, rep, err := Synthesize(cg, lib, Options{
		Merging: merging.Options{Policy: merging.MaxIndexRef, MaxK: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ig.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Cost > rep.P2PCost+1e-9 {
		t.Errorf("cost %v exceeds p2p %v", rep.Cost, rep.P2PCost)
	}
	if got := ig.Cost(); math.Abs(got-rep.Cost) > 1e-6*rep.Cost {
		t.Errorf("graph cost %v ≠ report %v", got, rep.Cost)
	}
}

// TestDegenerateSharedPortMerging exercises merging when channels share
// a literal source port vertex (rather than distinct co-located ports).
func TestDegenerateSharedPortMerging(t *testing.T) {
	cg := model.NewConstraintGraph(geom.Euclidean)
	hub := cg.MustAddPort(model.Port{Name: "hub", Position: geom.Pt(0, 0)})
	d1 := cg.MustAddPort(model.Port{Name: "d1", Position: geom.Pt(90, 3)})
	d2 := cg.MustAddPort(model.Port{Name: "d2", Position: geom.Pt(90, -3)})
	d3 := cg.MustAddPort(model.Port{Name: "d3", Position: geom.Pt(93, 0)})
	cg.MustAddChannel(model.Channel{Name: "x", From: hub, To: d1, Bandwidth: 8})
	cg.MustAddChannel(model.Channel{Name: "y", From: hub, To: d2, Bandwidth: 8})
	cg.MustAddChannel(model.Channel{Name: "z", From: hub, To: d3, Bandwidth: 8})

	ig, rep, err := Synthesize(cg, workloads.WANLibrary(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ig.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// All three channels leave the SAME port vertex. A 3-way merge on an
	// optical trunk ($4/km) beats three radios ($6/km combined).
	if rep.Cost >= rep.P2PCost {
		t.Errorf("merge should win: %v vs %v", rep.Cost, rep.P2PCost)
	}
	merged := false
	for _, c := range rep.SelectedCandidates() {
		if c.Kind == "merge" && len(c.Channels) == 3 {
			merged = true
		}
	}
	if !merged {
		t.Error("expected a 3-way merge from the shared port")
	}
}
