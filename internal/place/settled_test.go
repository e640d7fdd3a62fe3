package place

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/soc"
)

// TestSettledBoundary builds a two-channel merging by hand on the
// 180 nm library, in each norm, with one piece ε past a multiple of
// l_crit (0.6 mm): the first channel's ingress, its egress, or the
// trunk. Every other piece sits mid-segment. Shortened by r ≥ ε the
// marked piece drops a repeater, so settled must be false; for r < ε
// no piece changes cost, so it must be true. The search asks settled
// with r = reach·step, so reach must be the longest compass move per
// unit step, ‖(1, 1)‖: 2 in L1, √2 in L2 and 1 in L∞.
func TestSettledBoundary(t *testing.T) {
	const eps = 1e-3
	tech := soc.Tech180nm()
	lib := tech.Library()
	past := 2*tech.LCrit + eps // three segments, two repeaters
	for _, c := range []struct {
		norm  geom.Norm
		reach float64
	}{{geom.Euclidean, math.Sqrt2}, {geom.Manhattan, 2}, {geom.Chebyshev, 1}} {
		norm := c.norm
		if got := compassReach(norm); math.Abs(got-c.reach) > 1e-15 {
			t.Errorf("%s: compassReach = %v, want %v", norm.Name(), got, c.reach)
		}
		for _, marked := range []string{"ingress", "egress", "trunk"} {
			t.Run(fmt.Sprintf("%s/%s", norm.Name(), marked), func(t *testing.T) {
				in0, out0, trunk := tech.LCrit/2, tech.LCrit/2, 1.5*tech.LCrit
				switch marked {
				case "ingress":
					in0 = past
				case "egress":
					out0 = past
				case "trunk":
					trunk = past
				}
				x1 := geom.Pt(1, 1)
				x2 := x1.Add(geom.Pt(trunk, 0))
				cg := model.NewConstraintGraph(norm)
				var ids []model.ChannelID
				for i, ends := range [][2]geom.Point{
					{x1.Sub(geom.Pt(in0, 0)), x2.Add(geom.Pt(out0, 0))},
					{x1.Add(geom.Pt(0, tech.LCrit/2)), x2.Sub(geom.Pt(0, tech.LCrit/2))},
				} {
					u := cg.MustAddPort(model.Port{Name: fmt.Sprintf("s%d", i), Position: ends[0]})
					v := cg.MustAddPort(model.Port{Name: fmt.Sprintf("d%d", i), Position: ends[1]})
					ids = append(ids, cg.MustAddChannel(model.Channel{Name: fmt.Sprintf("c%d", i), From: u, To: v, Bandwidth: 10}))
				}

				sc := &Scratch{}
				stage(cg, lib, ids, sc)
				in, out := make([]float64, len(ids)), make([]float64, len(ids))
				for i := range ids {
					in[i] = sc.access[i].Cost(norm.Distance(sc.sources[i], x1))
					out[i] = sc.access[i].Cost(norm.Distance(x2, sc.dests[i]))
				}
				tc := sc.trunk.Cost(norm.Distance(x1, x2))

				for _, f := range []float64{4, 2, 1, 0.99, 0.5, 0.25} {
					if got, want := sc.settled(norm, x1, x2, f*eps, tc, in, out), f < 1; got != want {
						t.Errorf("r = %g·ε: settled = %v, want %v", f, got, want)
					}
				}
			})
		}
	}
}
