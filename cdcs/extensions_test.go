package cdcs

import (
	"testing"
)

func TestFacadeFullOnChipFlow(t *testing.T) {
	// Traffic → floorplan → constraint graph → synthesis → stats →
	// routing → LID, entirely through the facade.
	modules := []FloorplanModule{{Name: "cpu"}, {Name: "mem"}, {Name: "dsp"}, {Name: "io"}}
	sources := map[[2]int]TrafficSource{
		{0, 1}: {Peak: 10, MeanOn: 40, MeanOff: 40},
		{2, 1}: {Peak: 8, MeanOn: 60, MeanOff: 30},
		{3, 0}: {Peak: 4, MeanOn: 20, MeanOff: 80},
	}
	var demands []FloorplanDemand
	for pair, src := range sources {
		bw, err := EffectiveBandwidth(src, 100, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		if bw < src.MeanRate() || bw > src.Peak {
			t.Fatalf("effective bandwidth %v outside [mean, peak]", bw)
		}
		demands = append(demands, FloorplanDemand{From: pair[0], To: pair[1], Bandwidth: bw})
	}
	pl, err := PlaceModules(modules, demands, 5)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := FloorplanToConstraintGraph(modules, demands, pl)
	if err != nil {
		t.Fatal(err)
	}
	ig, rep, err := Synthesize(cg, Tech180nm().Library(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(ig); err != nil {
		t.Fatal(err)
	}
	if rep.Cost > rep.P2PCost+1e-9 {
		t.Errorf("cost %v exceeds baseline", rep.Cost)
	}

	stats := Stats(ig)
	if stats.LinksByType["wire"] == 0 {
		t.Error("no wires in stats")
	}
	if stats.LinkCost+stats.NodeCost == 0 {
		t.Error("stats cost split empty")
	}

	routed, err := RouteRectilinear(ig)
	if err != nil {
		t.Fatal(err)
	}
	if routed.TotalWirelength <= 0 {
		t.Error("no wire routed")
	}

	st, err := SteinerLowerBound([]Point{Pt(0, 0), Pt(2, 0), Pt(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Length != 4 {
		t.Errorf("Steiner bound = %v, want 4", st.Length)
	}

	lidRep, err := AnalyzeLatency(ig, LIDParams{
		Tech: Tech180nm(), ClockPeriodNS: 1, VelocityMMPerNS: 12,
		BufferCost: 1, LatchCost: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lidRep.MaxLatencyCycles > 1 {
		t.Error("0.18 µm flow should be single cycle at 12 mm reach")
	}
}
