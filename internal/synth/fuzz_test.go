package synth

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/num"
	"repro/internal/p2p"
	"repro/internal/soc"
	"repro/internal/workloads"
)

// fuzzLibraries are the libraries FuzzSynthesize draws from, each with
// the grid pitch and bandwidth step its instances use. On a library
// whose wires have a critical length or span the pitch is a quarter of
// it, and every step is a quarter of the smallest link's capacity, so
// small multiples of both land on segment and chain-count boundaries.
var fuzzLibraries = []struct {
	lib         func() *library.Library
	pitch, step float64
}{
	{func() *library.Library { return soc.Tech180nm().Library() }, 0.15, 25}, // l_crit 0.6 mm, 100 Gbit/s wire
	{workloads.NoCLibrary, 0.15, 25},                                         // 0.6 mm span, 100 Gbit/s wire
	{workloads.MCMLibrary, 30, 4},                                            // 120 mm trace span, 16 Gbit/s
	{workloads.WANLibrary, 25, 2.75},                                         // 11 Mbit/s radio
	{workloads.LANLibrary, 10, 13.5},                                         // 54 Mbit/s wireless
}

// FuzzSynthesize runs the whole synthesis flow on small instances
// decoded from the fuzz bytes (see decodeSynthInstance) with one
// pricing worker. An instance whose every channel has a point-to-point
// plan must synthesize; the result must then pass Def. 2.4's
// verification, cost what the report says (Lemma 2.1: the graph's cost
// is the sum of the selected candidates' costs) and cost no more than
// point-to-point. The seed corpus in testdata/fuzz/FuzzSynthesize has
// one instance per library and norm, and a two-channel Manhattan
// instance with unequal bandwidths, whose weighted-median placement
// start repeats the heavier channel's endpoints.
func FuzzSynthesize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cg, lib, ok := decodeSynthInstance(data)
		if !ok {
			return
		}
		ig, rep, err := Synthesize(cg, lib, Options{Workers: 1})
		if err != nil {
			var pe *PricingPanicError
			if errors.As(err, &pe) || allPlannable(cg, lib) {
				t.Fatalf("Synthesize: %v", err)
			}
			return
		}
		if err := ig.Verify(); err != nil {
			t.Fatalf("synthesized graph fails verification: %v", err)
		}
		if got := ig.Cost(); !num.Eq(got, rep.Cost) {
			t.Fatalf("graph costs %.17g, report says %.17g", got, rep.Cost)
		}
		if !num.LessEq(rep.Cost, rep.P2PCost) {
			t.Fatalf("cost %.17g exceeds the point-to-point cost %.17g", rep.Cost, rep.P2PCost)
		}
	})
}

// allPlannable reports whether every channel of cg has a
// point-to-point plan, the only precondition synthesis has once the
// instance validates.
func allPlannable(cg *model.ConstraintGraph, lib *library.Library) bool {
	for _, ch := range cg.ChannelIDs() {
		if _, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false); err != nil {
			return false
		}
	}
	return true
}

// decodeSynthInstance reads FuzzSynthesize's instance from the bytes: a
// norm byte, a library byte (fuzzLibraries) and five bytes per channel,
// one to five channels, each with its own two ports. A channel's first
// four bytes place its source and destination on a 16×16 grid of the
// library's pitch, and the fifth sets its bandwidth to one to eight of
// the library's steps. ok is false when the bytes hold no channel or
// the instance does not validate.
func decodeSynthInstance(data []byte) (cg *model.ConstraintGraph, lib *library.Library, ok bool) {
	if len(data) < 2+5 {
		return nil, nil, false
	}
	norms := []geom.Norm{geom.Euclidean, geom.Manhattan, geom.Chebyshev}
	cg = model.NewConstraintGraph(norms[int(data[0])%len(norms)])
	l := fuzzLibraries[int(data[1])%len(fuzzLibraries)]
	lib = l.lib()
	data = data[2:]
	for i := 0; i < 5 && len(data) >= 5; i++ {
		c := data[:5]
		data = data[5:]
		at := func(x, y byte) geom.Point { return geom.Pt(float64(x%16)*l.pitch, float64(y%16)*l.pitch) }
		u := cg.MustAddPort(model.Port{Name: fmt.Sprintf("u%d", i), Position: at(c[0], c[1])})
		v := cg.MustAddPort(model.Port{Name: fmt.Sprintf("v%d", i), Position: at(c[2], c[3])})
		cg.MustAddChannel(model.Channel{Name: fmt.Sprintf("c%d", i), From: u, To: v, Bandwidth: float64(1+c[4]%8) * l.step})
	}
	return cg, lib, cg.Validate() == nil
}
