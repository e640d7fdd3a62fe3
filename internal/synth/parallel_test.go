package synth

import (
	"fmt"
	"testing"

	"repro/internal/library"
	"repro/internal/model"
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

// runWorkload synthesizes one instance at the given worker count and
// returns the full observable outcome.
func runWorkload(t *testing.T, cg *model.ConstraintGraph, lib *library.Library, workers int) (*Report, int, int) {
	t.Helper()
	ig, rep, err := Synthesize(cg, lib, Options{Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return rep, ig.NumVertices(), ig.NumLinks()
}

// TestParallelPricingEquivalence: Synthesize with Workers > 1 must be
// observationally identical to the serial run — same candidate sequence
// (byte-identical signature), same optimal cost, same counters, same
// implementation-graph shape — on the WAN instance and on seeded random
// workloads of varying density. Run under -race this doubles as the
// pool race check.
func TestParallelPricingEquivalence(t *testing.T) {
	lib := workloads.WANLibrary()
	instances := []struct {
		name string
		cg   func() *model.ConstraintGraph
	}{
		{"wan", workloads.WAN},
		{"rand-s77", func() *model.ConstraintGraph {
			return workloads.RandomWAN(workloads.RandomWANConfig{Seed: 77, Clusters: 3, Channels: 9})
		}},
		{"rand-s1010", func() *model.ConstraintGraph {
			return workloads.RandomWAN(workloads.RandomWANConfig{Seed: 1010, Clusters: 3, Channels: 10})
		}},
		{"rand-s5", func() *model.ConstraintGraph {
			return workloads.RandomWAN(workloads.RandomWANConfig{Seed: 5, Clusters: 2, Channels: 8})
		}},
	}
	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			serial, sv, sl := runWorkload(t, inst.cg(), lib, 1)
			serialSig := candidateSignature(serial)
			for _, workers := range []int{2, 4, 8} {
				rep, v, l := runWorkload(t, inst.cg(), lib, workers)
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
