package p2p

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/library"
)

func curveTestLib() *library.Library {
	return &library.Library{
		Links: []library.Link{
			{Name: "radio", Bandwidth: 11, MaxSpan: math.Inf(1), CostPerLength: 2},
			{Name: "optical", Bandwidth: 1000, MaxSpan: math.Inf(1), CostPerLength: 4},
			{Name: "short", Bandwidth: 50, MaxSpan: 10, CostFixed: 3},
		},
		Nodes: []library.Node{
			{Name: "rep", Kind: library.Repeater, Cost: 1},
			{Name: "mux", Kind: library.Mux},
			{Name: "demux", Kind: library.Demux},
		},
	}
}

// randomCurveLib draws a small valid library. Bandwidths and spans come
// from short lists so that requirements land on their multiples, and
// each node kind is present only sometimes so that libraries without
// repeaters or switches occur.
func randomCurveLib(r *rand.Rand) *library.Library {
	bws := []float64{0.3, 1, 2.5, 10, 11, 100, 1000}
	spans := []float64{0.1, 0.6, 1, 3.7, 10, math.Inf(1)}
	lib := &library.Library{}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		l := library.Link{
			Name:      string(rune('a' + i)),
			Bandwidth: bws[r.Intn(len(bws))],
			MaxSpan:   spans[r.Intn(len(spans))],
		}
		if r.Intn(2) == 0 {
			l.CostFixed = r.Float64() * 5
		}
		if l.CostFixed == 0 || r.Intn(2) == 0 {
			l.CostPerLength = 0.01 + r.Float64()*4
		}
		lib.Links = append(lib.Links, l)
	}
	for _, kind := range []library.NodeKind{library.Repeater, library.Repeater, library.Mux, library.Demux} {
		if r.Intn(3) > 0 {
			lib.Nodes = append(lib.Nodes, library.Node{
				Name: kind.String() + string(rune('0'+len(lib.Nodes))), Kind: kind, Cost: r.Float64() * 3,
			})
		}
	}
	return lib
}

// nearMultiples returns multiples of unit and values just either side
// of them: one ulp, and offsets around the num.Eps ceiling tolerance.
func nearMultiples(unit float64) []float64 {
	var out []float64
	for _, k := range []float64{1, 2, 3, 7} {
		m := k * unit
		out = append(out, m, math.Nextafter(m, 0), math.Nextafter(m, math.Inf(1)))
		for _, rel := range []float64{1e-12, 5e-10, 1e-9, 2e-9} {
			out = append(out, unit*(k+rel), unit*(k-rel))
		}
	}
	return out
}

// checkCurve asserts that one curve agrees with BestPlan at every
// distance: the same cost bit for bit, and +Inf exactly where BestPlan
// errors.
func checkCurve(t *testing.T, lib *library.Library, b float64, oneChain bool, ds []float64) {
	t.Helper()
	var c Curve
	c.Reset(b, lib, oneChain)
	for _, d := range ds {
		got := c.Cost(d)
		want, err := BestPlan(d, b, lib, oneChain)
		switch {
		case err != nil && !math.IsInf(got, 1):
			t.Fatalf("d=%g b=%g oneChain=%v over %+v: Cost = %v, BestPlan errs: %v", d, b, oneChain, lib, got, err)
		case err == nil && math.Float64bits(got) != math.Float64bits(want.Cost):
			t.Fatalf("d=%g b=%g oneChain=%v over %+v: Cost = %v, BestPlan %v (%v)", d, b, oneChain, lib, got, want.Cost, want)
		}
	}
}

// TestCurveMatchesBestPlan pins the hoisted curve to the reference
// planner over seeded random libraries, chain rules and requirements,
// concentrating the requirements on the edges where a hoisted value
// could round differently: distances at multiples of MaxSpan and
// bandwidths at multiples of a link's bandwidth.
func TestCurveMatchesBestPlan(t *testing.T) {
	invalid := []float64{-1, math.Copysign(0, -1), math.NaN(), math.Inf(1)}
	fixed := curveTestLib()
	// Hand-picked cases: one requirement under both chain rules (a
	// duplicated access leg versus a trunk forced to one chain) and
	// requirements no link can meet.
	for _, c := range []struct {
		d, b     float64
		oneChain bool
	}{
		{5, 60, false},
		{5, 60, true},
		{100, 5000, true},
		{5, 10, false},
		{100, 25, false},
		{3, 40, false},
		{42, 2000, true},
	} {
		checkCurve(t, fixed, c.b, c.oneChain, append([]float64{c.d}, invalid...))
	}
	for _, b := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		checkCurve(t, fixed, b, false, []float64{0, 5})
	}

	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		lib := randomCurveLib(r)
		oneChain := r.Intn(2) == 0
		ds := append([]float64{0, r.Float64() * 50}, invalid...)
		bs := []float64{r.Float64() * 300}
		for _, l := range lib.Links {
			if !l.Unbounded() {
				ds = append(ds, nearMultiples(l.MaxSpan)...)
			}
			bs = append(bs, nearMultiples(l.Bandwidth)...)
		}
		for _, b := range bs {
			checkCurve(t, lib, b, oneChain, ds)
		}
	}
}

// TestCurveDistinguishesOptions: one requirement priced under both
// chain rules, which give it different plans. Placement reuses a curve
// across candidates, so a curve reset under the other rule must not
// keep the old rule's pricing: a trunk forced to one chain must not be
// priced as the duplicated access leg it was reset from.
func TestCurveDistinguishesOptions(t *testing.T) {
	lib := curveTestLib()
	multi, err := BestPlan(5, 60, lib, false)
	if err != nil {
		t.Fatal(err)
	}
	single, err := BestPlan(5, 60, lib, true)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Chains <= 1 || single.Chains != 1 || multi.Cost == single.Cost {
		t.Fatalf("want a duplicated and a single-chain plan of different cost, got %v and %v", multi, single)
	}
	var c Curve
	for round := 0; round < 2; round++ {
		c.Reset(60, lib, false)
		if got := c.Cost(5); got != multi.Cost {
			t.Fatalf("round %d: multi-chain curve prices %v, want %v", round, got, multi.Cost)
		}
		c.Reset(60, lib, true)
		if got := c.Cost(5); got != single.Cost {
			t.Fatalf("round %d: single-chain curve prices %v, want %v", round, got, single.Cost)
		}
	}
}

// TestCurvePricesErrorsAtInf: a requirement no single chain meets is
// priced at +Inf on every ask, with an infinite rate, and a
// reset to a feasible bandwidth prices finitely again.
func TestCurvePricesErrorsAtInf(t *testing.T) {
	lib := curveTestLib()
	if _, err := BestPlan(100, 5000, lib, true); err == nil {
		t.Fatal("expected infeasibility error")
	}
	var c Curve
	c.Reset(5000, lib, true)
	for i := 0; i < 3; i++ {
		if got := c.Cost(100); !math.IsInf(got, 1) {
			t.Fatalf("ask %d: infeasible requirement priced %v, want +Inf", i, got)
		}
	}
	if slope, intercept := c.Envelope(); !math.IsInf(slope, 1) || !math.IsInf(intercept, 1) {
		t.Errorf("infeasible curve envelope = (%v, %v), want +Inf", slope, intercept)
	}
	c.Reset(500, lib, true)
	want, err := BestPlan(100, 500, lib, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Cost(100); got != want.Cost {
		t.Errorf("after reset to a feasible bandwidth: %v, want %v", got, want.Cost)
	}
}

// TestCurveRejectsNonFinite: NaN and infinite requirements are errors
// of BestPlan and +Inf on the curve, never NaN or a finite price. A
// NaN would poison the placement minimizer, and an infinite bandwidth
// would overflow the chain count into a negative cost.
func TestCurveRejectsNonFinite(t *testing.T) {
	lib := curveTestLib()
	// A link with a fixed cost alone prices any finite-span distance
	// finitely; it must still not price an infinite one.
	lib.Links = append(lib.Links, library.Link{Name: "free", Bandwidth: 20, MaxSpan: math.Inf(1), CostFixed: 7})
	nan, inf := math.NaN(), math.Inf(1)
	bad := [][2]float64{
		{nan, 10}, {5, nan}, {nan, nan},
		{inf, 10}, {-inf, 10}, {5, inf}, {5, -inf},
	}
	var c Curve
	for i := 0; i < 3; i++ {
		for _, p := range bad {
			if _, err := BestPlan(p[0], p[1], lib, false); err == nil {
				t.Fatalf("BestPlan(%g, %g) succeeded, want error", p[0], p[1])
			}
			c.Reset(p[1], lib, false)
			if got := c.Cost(p[0]); !math.IsInf(got, 1) {
				t.Fatalf("curve prices (%g, %g) at %v, want +Inf", p[0], p[1], got)
			}
		}
	}
}

// TestCurveEnvelopeLengthPriced: on a purely length-priced library
// the curve is the line through the origin, its envelope is that line
// exactly, and the slope honours the one-chain rule.
func TestCurveEnvelopeLengthPriced(t *testing.T) {
	lib := wanLib() // radio 11 Mbps at 2/m, optical 1000 Mbps at 4/m
	var c Curve
	if slope, intercept := c.Envelope(); !math.IsInf(slope, 1) || !math.IsInf(intercept, 1) {
		t.Errorf("zero curve envelope = (%v, %v), want +Inf", slope, intercept)
	}
	for _, tc := range []struct {
		b        float64
		oneChain bool
		want     float64
	}{
		{10, false, 2},   // one radio
		{20, false, 4},   // two radios tie one optical
		{30, false, 4},   // three radios (6/m) lose to optical
		{20, true, 4},    // duplication ruled out
		{2000, false, 8}, // two opticals
		{2000, true, 0},  // infeasible
	} {
		c.Reset(tc.b, lib, tc.oneChain)
		got, intercept := c.Envelope()
		if tc.want == 0 {
			if !math.IsInf(got, 1) {
				t.Errorf("b=%g oneChain=%v: slope %v, want +Inf", tc.b, tc.oneChain, got)
			}
			continue
		}
		if got != tc.want || intercept != 0 {
			t.Errorf("b=%g oneChain=%v: envelope (%v, %v), want (%v, 0)", tc.b, tc.oneChain, got, intercept, tc.want)
		}
		if d := 37.5; math.Abs(c.Cost(d)-got*d) > 1e-9 {
			t.Errorf("b=%g oneChain=%v: Cost(%g) = %v, want slope·d = %v", tc.b, tc.oneChain, d, c.Cost(d), got*d)
		}
	}
}

// TestCurveEnvelopeUnderCost: the envelope line never exceeds the
// curve beyond float rounding (a relative 1e-9), over seeded random
// libraries and chain rules, at the distances where a segment count steps
// (multiples of MaxSpan, one ulp and the num.Ceil tolerance either
// side) and in between. Placement's lower bound, and through it the
// dominated-merging skip, is only as sound as this.
func TestCurveEnvelopeUnderCost(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var c Curve
	for trial := 0; trial < 300; trial++ {
		lib := randomCurveLib(r)
		oneChain := r.Intn(2) == 0
		ds := []float64{0, r.Float64() * 50, r.Float64() * 5000}
		for _, l := range lib.Links {
			if !l.Unbounded() {
				ds = append(ds, nearMultiples(l.MaxSpan)...)
				ds = append(ds, l.MaxSpan*(0.5+r.Float64()*20))
			}
		}
		for _, b := range []float64{r.Float64() * 300, lib.Links[0].Bandwidth, 2 * lib.Links[0].Bandwidth} {
			c.Reset(b, lib, oneChain)
			slope, intercept := c.Envelope()
			for _, d := range ds {
				cost := c.Cost(d)
				if line := slope*d + intercept; line > cost+1e-9*math.Max(1, math.Abs(cost)) {
					t.Fatalf("b=%g oneChain=%v over %+v: envelope %v·%g%+v = %v above Cost %v",
						b, oneChain, lib, slope, d, intercept, line, cost)
				}
			}
		}
	}
}
