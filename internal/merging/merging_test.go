package merging

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/model"
)

func pairGraph(t *testing.T, u1, v1, u2, v2 geom.Point, b1, b2 float64) *model.ConstraintGraph {
	t.Helper()
	cg := model.NewConstraintGraph(geom.Euclidean)
	pu1 := cg.MustAddPort(model.Port{Name: "u1", Position: u1})
	pv1 := cg.MustAddPort(model.Port{Name: "v1", Position: v1})
	pu2 := cg.MustAddPort(model.Port{Name: "u2", Position: u2})
	pv2 := cg.MustAddPort(model.Port{Name: "v2", Position: v2})
	cg.MustAddChannel(model.Channel{Name: "a1", From: pu1, To: pv1, Bandwidth: b1})
	cg.MustAddChannel(model.Channel{Name: "a2", From: pu2, To: pv2, Bandwidth: b2})
	return cg
}

func testLib() *library.Library {
	return &library.Library{
		Links: []library.Link{
			{Name: "slow", Bandwidth: 11, MaxSpan: math.Inf(1), CostPerLength: 2},
			{Name: "fast", Bandwidth: 100, MaxSpan: math.Inf(1), CostPerLength: 4},
		},
	}
}

func TestSymMatrix(t *testing.T) {
	m := NewSymMatrix(3)
	m.Set(0, 2, 5)
	if m.At(0, 2) != 5 || m.At(2, 0) != 5 {
		t.Error("symmetry broken")
	}
	if m.Size() != 3 {
		t.Errorf("Size = %d", m.Size())
	}
	if !strings.Contains(m.String(), "5.00") {
		t.Error("String should render entries")
	}
}

func TestGammaDelta(t *testing.T) {
	// Two parallel horizontal arcs, sources and dests 1 apart vertically.
	cg := pairGraph(t,
		geom.Pt(0, 0), geom.Pt(10, 0),
		geom.Pt(0, 1), geom.Pt(10, 1), 5, 5)
	g := Gamma(cg)
	d := Delta(cg)
	if g.At(0, 1) != 20 {
		t.Errorf("Γ = %v, want 20", g.At(0, 1))
	}
	if d.At(0, 1) != 2 {
		t.Errorf("Δ = %v, want 2", d.At(0, 1))
	}
	// Γ > Δ: mergeable candidate.
	if NotMergeablePair(g, d, 0, 1) {
		t.Error("parallel nearby arcs should be merge candidates")
	}
}

func TestLemma31PrunesDivergentPair(t *testing.T) {
	// Two arcs pointing away from each other: detour cannot pay off.
	cg := pairGraph(t,
		geom.Pt(0, 0), geom.Pt(-10, 0),
		geom.Pt(100, 0), geom.Pt(110, 0), 5, 5)
	g := Gamma(cg)
	d := Delta(cg)
	if !NotMergeablePair(g, d, 0, 1) {
		t.Errorf("divergent pair should be pruned: Γ=%v Δ=%v", g.At(0, 1), d.At(0, 1))
	}
}

func TestLemma31BoundaryEquality(t *testing.T) {
	// Head-to-tail arcs on a line: Γ == Δ exactly; the ≤ in Lemma 3.1
	// prunes the pair.
	cg := pairGraph(t,
		geom.Pt(0, 0), geom.Pt(1, 0),
		geom.Pt(1, 0), geom.Pt(2, 0), 5, 5)
	g := Gamma(cg)
	d := Delta(cg)
	if g.At(0, 1) != d.At(0, 1) {
		t.Fatalf("expected equality: Γ=%v Δ=%v", g.At(0, 1), d.At(0, 1))
	}
	if !NotMergeablePair(g, d, 0, 1) {
		t.Error("boundary case must prune")
	}
}

func TestBandwidthVector(t *testing.T) {
	cg := pairGraph(t, geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1), 7, 9)
	b := BandwidthVector(cg)
	if len(b) != 2 || b[0] != 7 || b[1] != 9 {
		t.Errorf("BandwidthVector = %v", b)
	}
}

func TestTheorem32Bandwidth(t *testing.T) {
	bw := []float64{10, 10, 10}
	lib := &library.Library{Links: []library.Link{
		{Name: "l", Bandwidth: 15, MaxSpan: 1, CostFixed: 1},
	}}
	// Σ = 30 ≥ max_l (15) + min (10) = 25 → pruned.
	if !NotMergeableBandwidth(bw, []int{0, 1, 2}, lib) {
		t.Error("bandwidth prune should trigger")
	}
	// Pair: Σ = 20 < 25 → kept.
	if NotMergeableBandwidth(bw, []int{0, 1}, lib) {
		t.Error("pair should survive bandwidth prune")
	}
	if NotMergeableBandwidth(bw, nil, lib) {
		t.Error("empty set should never be pruned")
	}
}

func TestNotMergeableSetPolicies(t *testing.T) {
	// Three-arc instance where the reference choice matters is exercised
	// via the WAN instance in the integration tests; here check the
	// degenerate cases and that AnyRef is at least as aggressive as
	// fixed-reference policies on random instances.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		cg := model.NewConstraintGraph(geom.Euclidean)
		n := 3 + r.Intn(3)
		var ids []model.ChannelID
		for i := 0; i < n; i++ {
			u := cg.MustAddPort(model.Port{
				Name:     "u" + string(rune('0'+i)),
				Position: geom.Pt(r.Float64()*50, r.Float64()*50),
			})
			v := cg.MustAddPort(model.Port{
				Name:     "v" + string(rune('0'+i)),
				Position: geom.Pt(r.Float64()*50, r.Float64()*50),
			})
			ids = append(ids, cg.MustAddChannel(model.Channel{
				Name: "a" + string(rune('0'+i)), From: u, To: v, Bandwidth: 5,
			}))
		}
		_ = ids
		gamma := Gamma(cg)
		delta := Delta(cg)
		set := []int{0, 1, 2}
		if NotMergeableSet(gamma, delta, set, MaxIndexRef) &&
			!NotMergeableSet(gamma, delta, set, AnyRef) {
			t.Fatalf("trial %d: AnyRef weaker than %v", trial, MaxIndexRef)
		}
	}
}

func TestNotMergeableSetDegenerate(t *testing.T) {
	g := NewSymMatrix(3)
	d := NewSymMatrix(3)
	if NotMergeableSet(g, d, []int{0}, AnyRef) {
		t.Error("singleton can never be non-mergeable")
	}
	if NotMergeableSet(g, d, nil, AnyRef) {
		t.Error("empty set can never be non-mergeable")
	}
}

func TestRefPolicyString(t *testing.T) {
	for _, p := range []RefPolicy{AnyRef, MaxIndexRef} {
		if p.String() == "unknown" || p.String() == "" {
			t.Errorf("policy %d has no name", p)
		}
	}
	if RefPolicy(99).String() != "unknown" {
		t.Error("unknown policy should render as unknown")
	}
}

func TestEnumerateEmptyGraph(t *testing.T) {
	cg := model.NewConstraintGraph(geom.Euclidean)
	cg.MustAddPort(model.Port{Name: "p", Position: geom.Pt(0, 0)})
	if _, err := Enumerate(cg, testLib(), Options{}); err == nil {
		t.Error("no channels should be an error")
	}
}

func TestEnumerateMaxK(t *testing.T) {
	cg := clusterInstance(t, 5)
	res, err := Enumerate(cg, testLib(), Options{Policy: MaxIndexRef, MaxK: 2})
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if res.Count(3) != 0 {
		t.Error("MaxK=2 must not produce 3-way candidates")
	}
}

func TestEnumerateAblationFlags(t *testing.T) {
	cg := clusterInstance(t, 6)
	strict, err := Enumerate(cg, testLib(), Options{Policy: AnyRef})
	if err != nil {
		t.Fatal(err)
	}
	noPrune, err := Enumerate(cg, testLib(), Options{
		Policy:           AnyRef,
		DisableLemma31:   true,
		DisableLemma32:   true,
		DisableTheorem31: true,
		DisableTheorem32: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if noPrune.TotalCandidates() < strict.TotalCandidates() {
		t.Errorf("disabling prunes lost candidates: %d < %d",
			noPrune.TotalCandidates(), strict.TotalCandidates())
	}
	// With everything disabled, every subset is a candidate: Σ C(n,k).
	n := cg.NumChannels()
	want := 0
	for k := 2; k <= n; k++ {
		want += binomial(n, k)
	}
	if noPrune.TotalCandidates() != want {
		t.Errorf("unpruned candidates = %d, want %d", noPrune.TotalCandidates(), want)
	}
	if noPrune.SetsPruned != 0 {
		t.Errorf("SetsPruned = %d with all prunes disabled", noPrune.SetsPruned)
	}
}

// clusterInstance builds n channels between two tight clusters, so that
// most subsets are merge candidates.
func clusterInstance(t *testing.T, n int) *model.ConstraintGraph {
	t.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	cg := model.NewConstraintGraph(geom.Euclidean)
	for i := 0; i < n; i++ {
		u := cg.MustAddPort(model.Port{
			Name:     "u" + string(rune('a'+i)),
			Position: geom.Pt(r.Float64(), r.Float64()),
		})
		v := cg.MustAddPort(model.Port{
			Name:     "v" + string(rune('a'+i)),
			Position: geom.Pt(100+r.Float64(), r.Float64()),
		})
		cg.MustAddChannel(model.Channel{
			Name: "ch" + string(rune('a'+i)), From: u, To: v, Bandwidth: 5,
		})
	}
	return cg
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i) / (i + 1)
	}
	return res
}

// Property: Theorem 3.1 bookkeeping is consistent — an arc eliminated at
// level k appears in no candidate of arity > k.
func TestTheorem31ConsistencyProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		cg := model.NewConstraintGraph(geom.Euclidean)
		n := 4 + r.Intn(4)
		for i := 0; i < n; i++ {
			u := cg.MustAddPort(model.Port{
				Name:     "u" + string(rune('0'+i)),
				Position: geom.Pt(r.Float64()*100, r.Float64()*100),
			})
			v := cg.MustAddPort(model.Port{
				Name:     "v" + string(rune('0'+i)),
				Position: geom.Pt(r.Float64()*100, r.Float64()*100),
			})
			cg.MustAddChannel(model.Channel{
				Name: "a" + string(rune('0'+i)), From: u, To: v, Bandwidth: 5,
			})
		}
		res, err := Enumerate(cg, testLib(), Options{Policy: MaxIndexRef})
		if err != nil {
			t.Fatal(err)
		}
		for ch, k := range res.EliminatedAt {
			if m := res.MaxArityOf(ch); m > k {
				t.Fatalf("trial %d: channel %d eliminated at %d but in a %d-way candidate", trial, ch, k, m)
			}
		}
	}
}

// Property: the geometric content of Lemma 3.1 — when a pair is pruned,
// routing both channels through ANY shared two-hub structure uses at
// least as much total link length as the two direct links.
func TestLemma31GeometricSoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; trial < 400 && checked < 60; trial++ {
		cg := pairGraph(t,
			geom.Pt(r.Float64()*100, r.Float64()*100),
			geom.Pt(r.Float64()*100, r.Float64()*100),
			geom.Pt(r.Float64()*100, r.Float64()*100),
			geom.Pt(r.Float64()*100, r.Float64()*100),
			5, 5)
		g := Gamma(cg)
		d := Delta(cg)
		if !NotMergeablePair(g, d, 0, 1) {
			continue
		}
		checked++
		c0 := cg.Channel(0)
		c1 := cg.Channel(1)
		u1, v1 := cg.Position(c0.From), cg.Position(c0.To)
		u2, v2 := cg.Position(c1.From), cg.Position(c1.To)
		direct := g.At(0, 1)
		for probe := 0; probe < 100; probe++ {
			x1 := geom.Pt(r.Float64()*100, r.Float64()*100)
			x2 := geom.Pt(r.Float64()*100, r.Float64()*100)
			norm := cg.Norm()
			merged := norm.Distance(u1, x1) + norm.Distance(u2, x1) +
				norm.Distance(x1, x2) +
				norm.Distance(x2, v1) + norm.Distance(x2, v2)
			if merged < direct-1e-9 {
				t.Fatalf("pruned pair admits shorter merged routing: %v < %v", merged, direct)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("too few pruned pairs sampled: %d", checked)
	}
}
