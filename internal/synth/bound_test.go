package synth

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/library"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/num"
	"repro/internal/p2p"
	"repro/internal/place"
	"repro/internal/soc"
	"repro/internal/workloads"
)

// TestBoundSkipKeepsCandidates prices every enumerated merging
// directly with place.Optimize and requires a synthesis run, which
// skips the mergings its certificate proves dominated, to report
// exactly the non-dominated priced sets: the same channels in the same
// order at bit-identical costs, and the same priced, infeasible and
// dominated counts. It covers the paper's WAN, LAN, MCM and NoC
// instances and 40 random ones at one and four workers.
func TestBoundSkipKeepsCandidates(t *testing.T) {
	type instance struct {
		name string
		cg   *model.ConstraintGraph
		lib  *library.Library
	}
	cases := []instance{
		{"wan", workloads.WAN(), workloads.WANLibrary()},
		{"lan", workloads.LAN(), workloads.LANLibrary()},
		{"mcm", workloads.MCM(), workloads.MCMLibrary()},
		{"noc", workloads.NoC(), workloads.NoCLibrary()},
	}
	for seed := int64(1); seed <= 10; seed++ {
		cases = append(cases,
			instance{fmt.Sprintf("randwan%d", seed),
				workloads.RandomWAN(workloads.RandomWANConfig{Seed: seed, Clusters: 3, Channels: 7}),
				workloads.WANLibrary()},
			instance{fmt.Sprintf("randsoc%d", seed),
				workloads.RandomSoC(workloads.RandomSoCConfig{Seed: seed, Modules: 8, Channels: 5}),
				soc.Tech180nm().Library()})
	}
	// Twenty clustered WANs with two or three tight clusters: mergings
	// whose optimal hubs collapse onto one point or sit on an endpoint,
	// the shapes the certificate's residual duals and collapsed point
	// prove dominated.
	for seed := int64(11); seed <= 30; seed++ {
		cases = append(cases, instance{fmt.Sprintf("clusteredwan%d", seed),
			workloads.RandomWAN(workloads.RandomWANConfig{Seed: seed, Clusters: 2 + int(seed%2), Channels: 7, Spread: 1 + float64(seed%4)}),
			workloads.WANLibrary()})
	}
	var skipped int
	for _, c := range cases {
		n := c.cg.NumChannels()
		enum, err := merging.Enumerate(c.cg, c.lib, merging.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var want []Candidate
		var infeasible, dominated int
		for k := 2; k <= n; k++ {
			for _, set := range enum.ByK[k] {
				cand, err := place.Optimize(c.cg, c.lib, set, nil)
				if err != nil {
					infeasible++
					continue
				}
				var sum float64
				for _, ch := range set {
					plan, err := p2p.BestPlan(c.cg.Distance(ch), c.cg.Bandwidth(ch), c.lib, false)
					if err != nil {
						t.Fatal(err)
					}
					sum += plan.Cost
				}
				if num.GreaterEq(cand.Cost, sum) {
					dominated++
					continue
				}
				want = append(want, Candidate{Channels: set, Cost: cand.Cost})
			}
		}
		for _, workers := range []int{1, 4} {
			_, rep, err := Synthesize(c.cg, c.lib, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			got := rep.Candidates[n:]
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d merging candidates, direct pricing keeps %d", c.name, workers, len(got), len(want))
			}
			for i := range got {
				if !slices.Equal(got[i].Channels, want[i].Channels) ||
					math.Float64bits(got[i].Cost) != math.Float64bits(want[i].Cost) {
					t.Fatalf("%s workers=%d: candidate %d is %v at %v, direct pricing %v at %v",
						c.name, workers, i, got[i].Channels, got[i].Cost, want[i].Channels, want[i].Cost)
				}
			}
			if rep.PricedMergings != len(want) || rep.InfeasibleMergings != infeasible || rep.DominatedMergings != dominated {
				t.Errorf("%s workers=%d: priced/infeasible/dominated %d/%d/%d, direct pricing %d/%d/%d", c.name, workers,
					rep.PricedMergings, rep.InfeasibleMergings, rep.DominatedMergings, len(want), infeasible, dominated)
			}
			if rep.SkippedByBound > rep.DominatedMergings {
				t.Errorf("%s workers=%d: %d skipped by bound exceeds %d dominated", c.name, workers, rep.SkippedByBound, rep.DominatedMergings)
			}
			skipped += rep.SkippedByBound
		}
	}
	if skipped == 0 {
		t.Error("the bound skipped no merging on any instance")
	}
}
