package p2p

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/model"
)

func wanLib() *library.Library {
	return &library.Library{
		Links: []library.Link{
			{Name: "radio", Bandwidth: 11, MaxSpan: math.Inf(1), CostPerLength: 2},
			{Name: "optical", Bandwidth: 1000, MaxSpan: math.Inf(1), CostPerLength: 4},
		},
	}
}

func socLib() *library.Library {
	return &library.Library{
		Links: []library.Link{
			{Name: "wire", Bandwidth: 100, MaxSpan: 0.6, CostFixed: 0.001, CostPerLength: 0},
		},
		Nodes: []library.Node{
			{Name: "inv", Kind: library.Repeater, Cost: 1},
			{Name: "mux", Kind: library.Mux, Cost: 1},
			{Name: "demux", Kind: library.Demux, Cost: 1},
		},
	}
}

func TestBestPlanMatching(t *testing.T) {
	p, err := BestPlan(10, 10, wanLib(), false)
	if err != nil {
		t.Fatalf("BestPlan: %v", err)
	}
	if p.Kind() != "matching" || p.Link.Name != "radio" {
		t.Errorf("plan = %v, want radio matching", p)
	}
	if p.Cost != 20 {
		t.Errorf("cost = %v, want 20", p.Cost)
	}
}

func TestBestPlanPicksCheaperLink(t *testing.T) {
	// At 30 Mbps the radio (11 Mbps) needs 3 chains at $2/m; optical
	// carries it on one link at $4/m. For d=10: radio 3×20=60, optical 40.
	p, err := BestPlan(10, 30, wanLib(), false)
	if err != nil {
		t.Fatalf("BestPlan: %v", err)
	}
	if p.Link.Name != "optical" || p.Cost != 40 {
		t.Errorf("plan = %v, want optical at 40", p)
	}
}

func TestBestPlanDuplication(t *testing.T) {
	// Bandwidth 2000 exceeds even optical: 2 parallel opticals.
	p, err := BestPlan(10, 2000, wanLib(), false)
	if err != nil {
		t.Fatalf("BestPlan: %v", err)
	}
	if p.Kind() != "duplication" || p.Chains != 2 || p.Link.Name != "optical" {
		t.Errorf("plan = %v, want 2-chain optical duplication", p)
	}
	if p.Cost != 80 {
		t.Errorf("cost = %v, want 80", p.Cost)
	}
}

func TestBestPlanSegmentation(t *testing.T) {
	// SoC wire spans 0.6; distance 2.0 → 4 segments, 3 repeaters.
	p, err := BestPlan(2.0, 50, socLib(), false)
	if err != nil {
		t.Fatalf("BestPlan: %v", err)
	}
	if p.Kind() != "segmentation" || p.Segments != 4 {
		t.Errorf("plan = %v, want 4-segment segmentation", p)
	}
	want := 4*0.001 + 3*1.0
	if math.Abs(p.Cost-want) > 1e-12 {
		t.Errorf("cost = %v, want %v", p.Cost, want)
	}
}

func TestBestPlanSegmentationExactMultiple(t *testing.T) {
	// Distance exactly 2 spans of 0.6 must give 2 segments, not 3.
	p, err := BestPlan(1.2, 50, socLib(), false)
	if err != nil {
		t.Fatalf("BestPlan: %v", err)
	}
	if p.Segments != 2 {
		t.Errorf("segments = %d, want 2", p.Segments)
	}
}

func TestBestPlanCombined(t *testing.T) {
	// Distance 1.0 (2 segments) and bandwidth 150 (2 chains).
	p, err := BestPlan(1.0, 150, socLib(), false)
	if err != nil {
		t.Fatalf("BestPlan: %v", err)
	}
	if p.Kind() != "segmentation+duplication" || p.Segments != 2 || p.Chains != 2 {
		t.Errorf("plan = %v, want 2×2", p)
	}
}

func TestBestPlanInfeasible(t *testing.T) {
	// No repeater in the library: segmentation impossible.
	lib := &library.Library{
		Links: []library.Link{{Name: "short", Bandwidth: 10, MaxSpan: 1, CostFixed: 1}},
	}
	if _, err := BestPlan(5, 5, lib, false); err == nil {
		t.Error("segmentation without repeaters should be infeasible")
	}
	// 1e9 over 100-wide wires needs 1e7 chains, past the 1<<20 ceiling.
	if _, err := BestPlan(1, 1e9, socLib(), false); err == nil {
		t.Error("a plan past the chain ceiling should be infeasible")
	}
}

func TestBestPlanInvalidArgs(t *testing.T) {
	if _, err := BestPlan(-1, 10, wanLib(), false); err == nil {
		t.Error("negative distance should error")
	}
	if _, err := BestPlan(10, 0, wanLib(), false); err == nil {
		t.Error("zero bandwidth should error")
	}
	if _, err := BestPlan(math.NaN(), 1, wanLib(), false); err == nil {
		t.Error("NaN distance should error")
	}
}

func TestPlanKindStrings(t *testing.T) {
	cases := []struct {
		segs, chains int
		want         string
	}{
		{1, 1, "matching"},
		{3, 1, "segmentation"},
		{1, 2, "duplication"},
		{2, 2, "segmentation+duplication"},
	}
	for _, c := range cases {
		p := Plan{Segments: c.segs, Chains: c.chains}
		if got := p.Kind(); got != c.want {
			t.Errorf("Kind(%d, %d) = %q, want %q", c.segs, c.chains, got, c.want)
		}
	}
}

func TestSynthesizeWANVerifies(t *testing.T) {
	cg := model.NewConstraintGraph(geom.Euclidean)
	a := cg.MustAddPort(model.Port{Name: "A", Position: geom.Pt(0, 0)})
	b := cg.MustAddPort(model.Port{Name: "B", Position: geom.Pt(30, 40)})
	cg.MustAddChannel(model.Channel{Name: "ab", From: a, To: b, Bandwidth: 10})
	cg.MustAddChannel(model.Channel{Name: "ba", From: b, To: a, Bandwidth: 25})

	ig, plans, err := Synthesize(cg, wanLib())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := ig.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Lemma 2.1: graph cost equals the sum of plan costs.
	if got, want := ig.Cost(), TotalCost(plans); math.Abs(got-want) > 1e-9 {
		t.Errorf("Lemma 2.1 violated: graph cost %v ≠ Σ plans %v", got, want)
	}
	// ab: radio at distance 50 → 100; ba: 25 Mbps needs optical (200) or
	// 3 radios (300): optical.
	if plans[0].Link.Name != "radio" || plans[1].Link.Name != "optical" {
		t.Errorf("plans = %v, %v", plans[0], plans[1])
	}
}

func TestSynthesizeSegmentedVerifies(t *testing.T) {
	cg := model.NewConstraintGraph(geom.Manhattan)
	a := cg.MustAddPort(model.Port{Name: "A", Position: geom.Pt(0, 0)})
	b := cg.MustAddPort(model.Port{Name: "B", Position: geom.Pt(1.0, 0.7)})
	cg.MustAddChannel(model.Channel{Name: "ab", From: a, To: b, Bandwidth: 50})

	ig, plans, err := Synthesize(cg, socLib())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := ig.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Manhattan distance 1.7 → 3 segments of 0.5667 each (≤ 0.6).
	if plans[0].Segments != 3 {
		t.Errorf("segments = %d, want 3", plans[0].Segments)
	}
	if ig.NumCommVertices() != 2 {
		t.Errorf("repeaters = %d, want 2", ig.NumCommVertices())
	}
}

func TestSynthesizeRejectsInvalidInputs(t *testing.T) {
	cg := model.NewConstraintGraph(geom.Euclidean)
	if _, _, err := Synthesize(cg, wanLib()); err == nil {
		t.Error("empty constraint graph should fail")
	}
	cg.MustAddPort(model.Port{Name: "A", Position: geom.Pt(0, 0)})
	if _, _, err := Synthesize(cg, &library.Library{}); err == nil {
		t.Error("empty library should fail")
	}
}

// Property: on random instances, synthesized graphs always verify and
// Lemma 2.1 holds.
func TestSynthesizeRandomProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	libs := []*library.Library{wanLib(), socLib()}
	for trial := 0; trial < 40; trial++ {
		lib := libs[trial%2]
		cg := model.NewConstraintGraph(geom.Euclidean)
		n := 2 + r.Intn(6)
		scale := 10.0
		if lib == socLib() {
			scale = 2.0 // keep segment counts manageable
		}
		var ports []model.PortID
		for i := 0; i < n; i++ {
			ports = append(ports, cg.MustAddPort(model.Port{
				Name:     string(rune('A' + i)),
				Position: geom.Pt(r.Float64()*scale, r.Float64()*scale),
			}))
		}
		added := 0
		for tries := 0; added < n && tries < 50; tries++ {
			u := ports[r.Intn(n)]
			v := ports[r.Intn(n)]
			if u == v {
				continue
			}
			name := "ch" + string(rune('0'+added))
			if _, err := cg.AddChannel(model.Channel{
				Name: name, From: u, To: v, Bandwidth: 1 + r.Float64()*40,
			}); err == nil {
				added++
			}
		}
		if added == 0 {
			continue
		}
		ig, plans, err := Synthesize(cg, lib)
		if err != nil {
			t.Fatalf("trial %d: Synthesize: %v", trial, err)
		}
		if err := ig.Verify(); err != nil {
			t.Fatalf("trial %d: Verify: %v", trial, err)
		}
		if got, want := ig.Cost(), TotalCost(plans); math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("trial %d: Lemma 2.1: %v ≠ %v", trial, got, want)
		}
	}
}

// Property: BestPlan cost is monotone in distance and bandwidth for the
// standard libraries (the practical content of Assumption 2.1).
func TestBestPlanMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, lib := range []*library.Library{wanLib(), socLib()} {
		for trial := 0; trial < 200; trial++ {
			d1, b1 := r.Float64()*5, 1+r.Float64()*50
			d2, b2 := d1+r.Float64()*5, b1+r.Float64()*50
			p1, err1 := BestPlan(d1, b1, lib, false)
			p2, err2 := BestPlan(d2, b2, lib, false)
			if err1 != nil || err2 != nil {
				t.Fatalf("unexpected infeasibility: %v %v", err1, err2)
			}
			if p1.Cost > p2.Cost+1e-9 {
				t.Fatalf("monotonicity violated: (%g,%g)→%g > (%g,%g)→%g",
					d1, b1, p1.Cost, d2, b2, p2.Cost)
			}
		}
	}
}

func TestCheckAssumption(t *testing.T) {
	ds := []float64{0.1, 0.5, 1, 2, 5, 10, 50}
	bs := []float64{1, 5, 10, 11, 20, 100, 500}
	for _, lib := range []*library.Library{wanLib(), socLib()} {
		if err := CheckAssumption(lib, ds, bs); err != nil {
			t.Errorf("CheckAssumption: %v", err)
		}
	}
}

func TestCheckAssumptionDetectsViolation(t *testing.T) {
	// Every per-link plan cost is nondecreasing in (d, b), so the
	// library-wide minimum is monotone by construction; the clause of
	// Assumption 2.1 that can actually fail is positivity. A free link
	// (rejected by Library.Validate, but CheckAssumption must stand on
	// its own) yields zero-cost implementations.
	lib := &library.Library{
		Links: []library.Link{
			{Name: "free", Bandwidth: 10, MaxSpan: 100},
		},
	}
	err := CheckAssumption(lib, []float64{1, 5}, []float64{5})
	if err == nil {
		t.Error("expected positivity violation to be detected")
	}
}

// TotalCost sums the plan costs, the right-hand side of Lemma 2.1.
func TotalCost(plans []Plan) float64 {
	var sum float64
	for _, p := range plans {
		sum += p.Cost
	}
	return sum
}
