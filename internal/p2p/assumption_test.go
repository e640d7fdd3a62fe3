package p2p

import (
	"fmt"

	"repro/internal/library"
	"repro/internal/num"
)

// CheckAssumption is the test oracle for Assumption 2.1. It samples the
// library's minimum-cost point-to-point implementation costs on a grid
// of (distance, bandwidth) requirements and verifies the monotonicity
// direction of the assumption: whenever d ≤ d' and b ≤ b', the minimum
// implementation costs satisfy C(P(a)) ≤ C(P(a')). (The assumption as
// stated is an equivalence; for scalar costs the reverse direction can
// only be checked meaningfully on comparable requirement pairs, which is
// exactly what the grid covers.)
//
// It also verifies that every sampled requirement has strictly positive
// cost, the assumption's other clause. distances and bandwidths give the
// sample axes; every pairwise combination is evaluated. Samples that no
// library element can implement are skipped (infeasibility is a library
// coverage question, not a monotonicity violation).
func CheckAssumption(lib *library.Library, distances, bandwidths []float64) error {
	type sample struct {
		d, b, cost float64
		feasible   bool
	}
	var samples []sample
	for _, d := range distances {
		for _, b := range bandwidths {
			p, err := BestPlan(d, b, lib, false)
			s := sample{d: d, b: b}
			if err == nil {
				s.cost = p.Cost
				s.feasible = true
				if p.Cost <= 0 && d > 0 {
					return fmt.Errorf("p2p: assumption 2.1 violated: zero cost at d=%g b=%g", d, b)
				}
			}
			samples = append(samples, s)
		}
	}
	for _, s1 := range samples {
		if !s1.feasible {
			continue
		}
		for _, s2 := range samples {
			if !s2.feasible {
				continue
			}
			if num.AtMost(s1.d, s2.d) && num.AtMost(s1.b, s2.b) && num.Greater(s1.cost, s2.cost) {
				return fmt.Errorf(
					"p2p: assumption 2.1 violated: (d=%g, b=%g) costs %.6g but dominated (d=%g, b=%g) costs %.6g",
					s1.d, s1.b, s1.cost, s2.d, s2.b, s2.cost)
			}
		}
	}
	return nil
}
