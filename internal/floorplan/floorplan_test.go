package floorplan

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/soc"
	"repro/internal/synth"
)

func ringInstance(n int) ([]Module, []Demand) {
	modules := make([]Module, n)
	for i := range modules {
		modules[i] = Module{Name: "m" + string(rune('A'+i))}
	}
	var demands []Demand
	for i := 0; i < n; i++ {
		demands = append(demands, Demand{From: i, To: (i + 1) % n, Bandwidth: 1 + float64(i%3)})
	}
	return modules, demands
}

func TestPlaceValidation(t *testing.T) {
	if _, err := Place(nil, nil, Options{}); err == nil {
		t.Error("no modules should fail")
	}
	mods := []Module{{Name: "a"}, {Name: "a"}}
	if _, err := Place(mods, nil, Options{}); err == nil {
		t.Error("duplicate names should fail")
	}
	mods = []Module{{Name: "a"}, {Name: ""}}
	if _, err := Place(mods, nil, Options{}); err == nil {
		t.Error("empty name should fail")
	}
	mods = []Module{{Name: "a"}, {Name: "b"}}
	if _, err := Place(mods, []Demand{{From: 0, To: 5, Bandwidth: 1}}, Options{}); err == nil {
		t.Error("out-of-range demand should fail")
	}
	if _, err := Place(mods, []Demand{{From: 0, To: 0, Bandwidth: 1}}, Options{}); err == nil {
		t.Error("self demand should fail")
	}
	if _, err := Place(mods, []Demand{{From: 0, To: 1, Bandwidth: 0}}, Options{}); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

func TestPlaceDistinctPositions(t *testing.T) {
	mods, demands := ringInstance(9)
	pl, err := Place(mods, demands, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[geom.Point]bool{}
	for _, p := range pl.Positions {
		if seen[p] {
			t.Fatalf("two modules share slot %v", p)
		}
		seen[p] = true
	}
}

func TestPlaceDeterministic(t *testing.T) {
	mods, demands := ringInstance(8)
	a, err := Place(mods, demands, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(mods, demands, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Positions {
		if !a.Positions[i].Eq(b.Positions[i]) {
			t.Fatalf("non-deterministic placement at module %d", i)
		}
	}
}

func TestPlaceBeatsRandom(t *testing.T) {
	mods, demands := ringInstance(12)
	pl, err := Place(mods, demands, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Average wirelength of random placements (the annealer's own
	// initial state distribution).
	r := rand.New(rand.NewSource(99))
	var sum float64
	const samples = 50
	side := 4 // ceil(sqrt(12)) + slack matches Place's grid for n=12
	_ = side
	for s := 0; s < samples; s++ {
		quick, err := Place(mods, demands, Options{Seed: r.Int63(), Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		sum += quick.Wirelength
	}
	avgRandom := sum / samples
	if pl.Wirelength >= avgRandom {
		t.Errorf("annealed %v not better than random average %v", pl.Wirelength, avgRandom)
	}
	if pl.Accepted == 0 || pl.Moves == 0 {
		t.Error("annealer made no moves")
	}
}

func TestWirelengthConsistent(t *testing.T) {
	mods, demands := ringInstance(6)
	pl, err := Place(mods, demands, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var manual float64
	for _, d := range demands {
		manual += d.Bandwidth * geom.Manhattan.Distance(pl.Positions[d.From], pl.Positions[d.To])
	}
	if math.Abs(manual-pl.Wirelength) > 1e-9 {
		t.Errorf("reported wirelength %v ≠ recomputed %v (incremental-delta bug?)", pl.Wirelength, manual)
	}
}

func TestToConstraintGraphAndSynthesize(t *testing.T) {
	// End-to-end upstream→downstream: floorplan a small SoC, build the
	// constraint graph, synthesize, verify.
	mods, demands := ringInstance(6)
	pl, err := Place(mods, demands, Options{Seed: 5, SlotPitch: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := ToConstraintGraph(mods, demands, pl)
	if err != nil {
		t.Fatal(err)
	}
	if cg.NumChannels() != len(demands) {
		t.Fatalf("channels = %d, want %d", cg.NumChannels(), len(demands))
	}
	lib := soc.Tech180nm().Library()
	ig, rep, err := synth.Synthesize(cg, lib, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ig.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Cost > rep.P2PCost+1e-9 {
		t.Errorf("cost %v exceeds p2p %v", rep.Cost, rep.P2PCost)
	}
}

func TestToConstraintGraphMismatch(t *testing.T) {
	mods, demands := ringInstance(4)
	pl := &Placement{Positions: []geom.Point{{}}}
	if _, err := ToConstraintGraph(mods, demands, pl); err == nil {
		t.Error("mismatched placement should fail")
	}
}

// Property: a better placement never synthesizes to a worse p2p
// baseline on pure-wirelength libraries (cost is monotone in distance).
func TestPlacementQualityPropagates(t *testing.T) {
	mods, demands := ringInstance(9)
	good, err := Place(mods, demands, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Place(mods, demands, Options{Seed: 2, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if good.Wirelength > bad.Wirelength {
		t.Skip("annealer did not improve on this seed")
	}
	lib := soc.Tech180nm().Library()
	cost := func(pl *Placement) float64 {
		cg, err := ToConstraintGraph(mods, demands, pl)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := synth.Synthesize(cg, lib, synth.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cost
	}
	cGood, cBad := cost(good), cost(bad)
	if cGood > cBad+1e-9 {
		t.Errorf("better placement synthesized worse: %v vs %v", cGood, cBad)
	}
}
