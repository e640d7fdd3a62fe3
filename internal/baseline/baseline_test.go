package baseline

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/workloads"
)

func TestGreedyMissesTripleMergeOnWAN(t *testing.T) {
	// The headline failure mode: on the paper's own instance no pair of
	// {a4, a5, a6} improves on point-to-point (a 2-way radio-to-optical
	// upgrade costs exactly what it saves), so greedy agglomeration
	// stays at the point-to-point solution while the exact algorithm
	// finds the 3-way merge.
	cg := workloads.WAN()
	lib := workloads.WANLibrary()

	ig, rep, err := Synthesize(cg, lib)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := ig.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Merges != 0 {
		t.Errorf("greedy committed %d merges; expected to be stuck at p2p", rep.Merges)
	}
	if math.Abs(rep.Cost-rep.P2PCost) > 1e-9 {
		t.Errorf("greedy cost %v ≠ p2p %v", rep.Cost, rep.P2PCost)
	}

	_, exact, err := synth.Synthesize(cg, lib, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cost >= rep.Cost {
		t.Errorf("exact (%v) should beat greedy (%v) on the WAN", exact.Cost, rep.Cost)
	}
	gap := 100 * (rep.Cost - exact.Cost) / exact.Cost
	if gap < 20 {
		t.Errorf("expected a large optimality gap, got %.1f%%", gap)
	}
	t.Logf("WAN: greedy %.2f vs exact %.2f (gap %.1f%%)", rep.Cost, exact.Cost, gap)
}

func TestGreedyFindsObviousMerge(t *testing.T) {
	// When a pairwise merge does pay immediately, greedy must take it:
	// two channels from one point to nearby destinations, with the
	// trunk medium already cheap.
	cg := model.NewConstraintGraph(geom.Euclidean)
	u1 := cg.MustAddPort(model.Port{Name: "u1", Position: geom.Pt(0, 0)})
	u2 := cg.MustAddPort(model.Port{Name: "u2", Position: geom.Pt(0, 0)})
	d1 := cg.MustAddPort(model.Port{Name: "d1", Position: geom.Pt(100, 1)})
	d2 := cg.MustAddPort(model.Port{Name: "d2", Position: geom.Pt(100, -1)})
	cg.MustAddChannel(model.Channel{Name: "x", From: u1, To: d1, Bandwidth: 4})
	cg.MustAddChannel(model.Channel{Name: "y", From: u2, To: d2, Bandwidth: 4})

	// Combined 8 Mbps still fits one 11 Mbps radio trunk: merging two
	// $2/km radios into one is nearly half price.
	ig, rep, err := Synthesize(cg, workloads.WANLibrary())
	if err != nil {
		t.Fatal(err)
	}
	if err := ig.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Merges != 1 {
		t.Errorf("merges = %d, want 1", rep.Merges)
	}
	if rep.Cost >= rep.P2PCost {
		t.Errorf("merge should improve: %v vs %v", rep.Cost, rep.P2PCost)
	}
}

func TestGreedyNeverBeatsExactProperty(t *testing.T) {
	lib := workloads.WANLibrary()
	for seed := int64(0); seed < 6; seed++ {
		cg := workloads.RandomWAN(workloads.RandomWANConfig{
			Seed: seed, Clusters: 2, Channels: 6,
		})
		_, greedy, err := Synthesize(cg, lib)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, exact, err := synth.Synthesize(cg, lib, synth.Options{})
		if err != nil {
			t.Fatalf("seed %d exact: %v", seed, err)
		}
		if exact.Cost > greedy.Cost+1e-6 {
			t.Fatalf("seed %d: exact %v worse than greedy %v", seed, exact.Cost, greedy.Cost)
		}
	}
}

func TestValidatesInputs(t *testing.T) {
	cg := model.NewConstraintGraph(geom.Euclidean)
	if _, _, err := Synthesize(cg, workloads.WANLibrary()); err == nil {
		t.Error("empty graph should fail")
	}
}
