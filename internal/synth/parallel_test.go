package synth

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/soc"
	"repro/internal/workloads"
)

// candidateSignature serializes everything the covering step and the
// report consumer can observe about the candidate sequence: order,
// channel sets, kinds, exact costs, plan shapes and hub positions.
// Byte-identical signatures mean byte-identical covering instances.
func candidateSignature(rep *Report) string {
	sig := ""
	for _, c := range rep.Candidates {
		sig += fmt.Sprintf("%s%v cost=%x sel=%v", c.Kind, c.Channels, c.Cost, c.Selected)
		if c.Plan != nil {
			sig += fmt.Sprintf(" plan=%s/%d/%d/%x", c.Plan.Link.Name, c.Plan.Segments, c.Plan.Chains, c.Plan.Cost)
		}
		if c.Merge != nil {
			sig += fmt.Sprintf(" mux=%v demux=%v trunk=%s/%d/%x",
				c.Merge.MuxPos, c.Merge.DemuxPos,
				c.Merge.TrunkPlan.Link.Name, c.Merge.TrunkPlan.Segments, c.Merge.TrunkPlan.Cost)
		}
		sig += "|"
	}
	return sig
}

// placeCounters are the placement counters synthesis publishes once
// per run from its pricing lanes' tallies.
var placeCounters = []string{"place/starts", "place/starts_repeated", "place/probes", "place/settled"}

// runWorkload synthesizes one instance at the given worker count and
// returns the full observable outcome, with the run's counters.
func runWorkload(t *testing.T, cg *model.ConstraintGraph, lib *library.Library, workers int) (*Report, int, int, map[string]int64) {
	t.Helper()
	sink := obs.New(obs.Config{Metrics: true})
	ig, rep, err := SynthesizeContext(obs.NewContext(context.Background(), sink), cg, lib, Options{Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return rep, ig.NumVertices(), ig.NumLinks(), sink.Metrics().Snapshot().CounterMap()
}

// TestParallelPricingEquivalence: Synthesize with Workers > 1 must be
// observationally identical to the serial run — same candidate sequence
// (byte-identical signature), same optimal cost, same counters, same
// implementation-graph shape — on the WAN instance and on seeded random
// workloads of varying density, the last on a step-cost library whose
// placements take the general multistart path. The place/* counters,
// summed over the pricing lanes, must not depend on the worker count
// either. Run under -race this doubles as the pool race check.
func TestParallelPricingEquivalence(t *testing.T) {
	instances := []struct {
		name string
		cg   func() *model.ConstraintGraph
		lib  *library.Library
	}{
		{"wan", workloads.WAN, workloads.WANLibrary()},
		{"rand-s77", func() *model.ConstraintGraph {
			return workloads.RandomWAN(workloads.RandomWANConfig{Seed: 77, Clusters: 3, Channels: 9})
		}, workloads.WANLibrary()},
		{"rand-s1010", func() *model.ConstraintGraph {
			return workloads.RandomWAN(workloads.RandomWANConfig{Seed: 1010, Clusters: 3, Channels: 10})
		}, workloads.WANLibrary()},
		{"rand-s5", func() *model.ConstraintGraph {
			return workloads.RandomWAN(workloads.RandomWANConfig{Seed: 5, Clusters: 2, Channels: 8})
		}, workloads.WANLibrary()},
		{"soc-s3", func() *model.ConstraintGraph {
			return workloads.RandomSoC(workloads.RandomSoCConfig{Seed: 3, Modules: 6, Channels: 7})
		}, soc.Tech180nm().Library()},
	}
	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			serial, sv, sl, serialCounters := runWorkload(t, inst.cg(), inst.lib, 1)
			serialSig := candidateSignature(serial)
			if serialCounters["synth/price/pricings"] > 0 && (serialCounters["place/starts"] == 0 || serialCounters["place/probes"] == 0) {
				t.Fatalf("serial run placed mergings but published no pattern searches: %v", serialCounters)
			}
			for _, workers := range []int{2, 4, 8} {
				rep, v, l, counters := runWorkload(t, inst.cg(), inst.lib, workers)
				for _, name := range placeCounters {
					if counters[name] != serialCounters[name] {
						t.Fatalf("workers=%d %s = %d, serial %d", workers, name, counters[name], serialCounters[name])
					}
				}
				if got := candidateSignature(rep); got != serialSig {
					t.Fatalf("workers=%d candidate sequence diverged:\nserial:   %s\nparallel: %s",
						workers, serialSig, got)
				}
				if rep.Cost != serial.Cost || rep.P2PCost != serial.P2PCost {
					t.Fatalf("workers=%d cost %v/%v, serial %v/%v",
						workers, rep.Cost, rep.P2PCost, serial.Cost, serial.P2PCost)
				}
				if rep.PricedMergings != serial.PricedMergings ||
					rep.InfeasibleMergings != serial.InfeasibleMergings ||
					rep.DominatedMergings != serial.DominatedMergings {
					t.Fatalf("workers=%d counters (%d,%d,%d), serial (%d,%d,%d)",
						workers, rep.PricedMergings, rep.InfeasibleMergings, rep.DominatedMergings,
						serial.PricedMergings, serial.InfeasibleMergings, serial.DominatedMergings)
				}
				if v != sv || l != sl {
					t.Fatalf("workers=%d graph %d vertices/%d links, serial %d/%d", workers, v, l, sv, sl)
				}
			}
		})
	}
}

// TestPhaseTimings: the per-phase breakdown must be populated and must
// not exceed the total elapsed time.
func TestPhaseTimings(t *testing.T) {
	_, rep, err := Synthesize(workloads.WAN(), workloads.WANLibrary(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm := rep.Timings
	if tm.Enumerate <= 0 || tm.Price <= 0 || tm.Solve <= 0 || tm.Materialize <= 0 {
		t.Errorf("unpopulated phase timing: %+v", tm)
	}
	if sum := tm.Enumerate + tm.Price + tm.Solve + tm.Materialize; sum > rep.Elapsed {
		t.Errorf("phase sum %v exceeds elapsed %v", sum, rep.Elapsed)
	}
	if rep.Workers <= 0 {
		t.Errorf("report workers = %d", rep.Workers)
	}
}

// TestWorkersReported: an explicit worker count is echoed in the report.
func TestWorkersReported(t *testing.T) {
	_, rep, err := Synthesize(workloads.WAN(), workloads.WANLibrary(), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 3 {
		t.Errorf("report workers = %d, want 3", rep.Workers)
	}
}
