// Top-level benchmarks: one per table and figure of the paper's
// evaluation (E1–E6) plus the repository's extension studies (E7–E8).
// Each benchmark re-derives the artifact and fails if the reproduced
// values drift from the published ones, so `go test -bench=.` doubles as
// the reproduction acceptance run. cmd/cdcs-bench prints the same
// artifacts with full detail.
package repro_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/baseline"
	"repro/internal/experiments"
	"repro/internal/flowsim"
	"repro/internal/lid"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/p2p"
	"repro/internal/place"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// BenchmarkTable1GammaMatrix regenerates the Constrained Distance Sum
// Matrix Γ of Table 1 (experiment E1).
func BenchmarkTable1GammaMatrix(b *testing.B) {
	cg := workloads.WAN()
	want := workloads.PaperTable1()
	for i := 0; i < b.N; i++ {
		gamma := merging.Gamma(cg)
		for r := 0; r < 8; r++ {
			for c := r + 1; c < 8; c++ {
				if math.Abs(gamma.At(r, c)-want[r][c]) > 0.03 {
					b.Fatalf("Γ(a%d,a%d) = %.3f, published %.2f", r+1, c+1, gamma.At(r, c), want[r][c])
				}
			}
		}
	}
}

// BenchmarkTable2DeltaMatrix regenerates the Merging Distance Sum
// Matrix Δ of Table 2 (experiment E2).
func BenchmarkTable2DeltaMatrix(b *testing.B) {
	cg := workloads.WAN()
	want := workloads.PaperTable2()
	for i := 0; i < b.N; i++ {
		delta := merging.Delta(cg)
		for r := 0; r < 8; r++ {
			for c := r + 1; c < 8; c++ {
				if math.Abs(delta.At(r, c)-want[r][c]) > 0.03 {
					b.Fatalf("Δ(a%d,a%d) = %.3f, published %.2f", r+1, c+1, delta.At(r, c), want[r][c])
				}
			}
		}
	}
}

// BenchmarkFig3ConstraintGraph rebuilds the WAN constraint graph of
// Figure 3 (experiment E3).
func BenchmarkFig3ConstraintGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cg := workloads.WAN()
		if cg.NumChannels() != 8 {
			b.Fatalf("channels = %d", cg.NumChannels())
		}
		if err := cg.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2CandidateGeneration runs the Figure 2 candidate
// enumeration on the WAN instance and checks the Section 4 counts
// (experiment E4: 13 two-way, 21 three-way, 16 four-way).
func BenchmarkFig2CandidateGeneration(b *testing.B) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	paper := workloads.PaperCandidateCounts()
	for i := 0; i < b.N; i++ {
		res, err := merging.Enumerate(cg, lib, merging.Options{Policy: merging.MaxIndexRef})
		if err != nil {
			b.Fatal(err)
		}
		for k := 2; k <= 4; k++ {
			if res.Count(k) != paper[k] {
				b.Fatalf("k=%d candidates = %d, paper %d", k, res.Count(k), paper[k])
			}
		}
	}
}

// BenchmarkExample1WANSynthesis runs the full synthesis of Example 1 and
// checks the Figure 4 optimum (experiment E5: merge {a4, a5, a6} on an
// optical trunk, radio elsewhere).
func BenchmarkExample1WANSynthesis(b *testing.B) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	for i := 0; i < b.N; i++ {
		ig, rep, err := synth.Synthesize(cg, lib, synth.Options{
			Merging: merging.Options{Policy: merging.MaxIndexRef},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := ig.Verify(); err != nil {
			b.Fatal(err)
		}
		merged := 0
		for _, c := range rep.SelectedCandidates() {
			if c.Kind == "merge" {
				merged++
				if len(c.Channels) != 3 || c.Merge.TrunkPlan.Link.Name != "optical" {
					b.Fatalf("unexpected merge %v over %s", c.Channels, c.Merge.TrunkPlan.Link.Name)
				}
			}
		}
		if merged != 1 || rep.Cost >= rep.P2PCost {
			b.Fatalf("architecture shape wrong: %d merges, cost %v vs p2p %v",
				merged, rep.Cost, rep.P2PCost)
		}
	}
}

// BenchmarkExample2MPEG4 runs the Example 2 repeater insertion and
// checks the Figure 5 total (experiment E6: 55 repeaters).
func BenchmarkExample2MPEG4(b *testing.B) {
	cg := workloads.MPEG4()
	lib := workloads.MPEG4Technology().Library()
	for i := 0; i < b.N; i++ {
		ig, _, err := p2p.Synthesize(cg, lib)
		if err != nil {
			b.Fatal(err)
		}
		if got := ig.NumCommVertices(); got != workloads.MPEG4ExpectedRepeaters {
			b.Fatalf("repeaters = %d, want %d", got, workloads.MPEG4ExpectedRepeaters)
		}
	}
}

// BenchmarkFlowSimulation runs the E9 traffic validation of the
// synthesized Figure 4 architecture.
func BenchmarkFlowSimulation(b *testing.B) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	ig, _, err := synth.Synthesize(cg, lib, synth.Options{
		Merging: merging.Options{Policy: merging.MaxIndexRef},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := flowsim.Simulate(ig, flowsim.Config{Ticks: 400})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllSatisfied() {
			b.Fatal("synthesized architecture starved a channel")
		}
	}
}

// BenchmarkLIDSweep runs the E10 deep-sub-micron sweep of the MPEG-4
// instance under the buffer/latch cost function.
func BenchmarkLIDSweep(b *testing.B) {
	cg := workloads.MPEG4()
	for i := 0; i < b.N; i++ {
		for _, gen := range lid.DSMGenerations() {
			rep, err := lid.Analyze(cg, lid.ParamsFor(gen, 4))
			if err != nil {
				b.Fatal(err)
			}
			if gen.Name == "0.18um" &&
				(rep.TotalBuffers != workloads.MPEG4ExpectedRepeaters || !rep.SingleCycle()) {
				b.Fatalf("0.18um sweep point wrong: %+v", rep)
			}
		}
	}
}

// BenchmarkBaselineComparison runs the E13 exact-vs-agglomerative
// comparison on the WAN instance and asserts the headline separation:
// greedy stays at point-to-point while the exact flow saves ~28%.
func BenchmarkBaselineComparison(b *testing.B) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	for i := 0; i < b.N; i++ {
		_, greedy, err := baseline.Synthesize(cg, lib)
		if err != nil {
			b.Fatal(err)
		}
		_, exact, err := synth.Synthesize(cg, lib, synth.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if greedy.Merges != 0 || exact.Cost >= greedy.Cost {
			b.Fatalf("separation lost: greedy merges=%d, exact %v vs greedy %v",
				greedy.Merges, exact.Cost, greedy.Cost)
		}
	}
}

// BenchmarkAblationPruning measures candidate enumeration with all
// prunes against no prunes on the WAN instance (experiment E7's fast
// core; the full sweep lives in cmd/cdcs-bench -exp ablation).
func BenchmarkAblationPruning(b *testing.B) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := merging.Enumerate(cg, lib, merging.Options{Policy: merging.MaxIndexRef}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := merging.Enumerate(cg, lib, merging.Options{
				DisableLemma31: true, DisableLemma32: true,
				DisableTheorem31: true, DisableTheorem32: true,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScaling synthesizes one random clustered instance per size
// (experiment E8's core loop; the full sweep with greedy comparison
// lives in cmd/cdcs-bench -exp scaling).
func BenchmarkScaling(b *testing.B) {
	lib := workloads.WANLibrary()
	for _, n := range []int{6, 10} {
		cg := workloads.RandomWAN(workloads.RandomWANConfig{
			Seed: int64(1000 + n), Clusters: 3, Channels: n,
		})
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, rep, err := synth.Synthesize(cg, lib, synth.Options{
					Merging: merging.Options{Policy: merging.MaxIndexRef},
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Cost > rep.P2PCost+1e-9 {
					b.Fatalf("cost %v exceeds p2p %v", rep.Cost, rep.P2PCost)
				}
			}
		})
	}
}

func sizeName(n int) string {
	return "A" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// BenchmarkPriceParallel measures the full synthesis — dominated by
// Step 1c candidate pricing — at one worker versus all cores, on the
// paper's WAN instance (the Table 1/Table 2 workload) and on a denser
// random clustered instance. The parallel/serial ratio is the headline
// number; correctness of the parallel run is covered by
// synth.TestParallelPricingEquivalence.
func BenchmarkPriceParallel(b *testing.B) {
	lib := workloads.WANLibrary()
	instances := []struct {
		name string
		cg   *model.ConstraintGraph
	}{
		{"table2-wan", workloads.WAN()},
		{"random-10ch", workloads.RandomWAN(workloads.RandomWANConfig{
			Seed: 42, Clusters: 3, Channels: 10,
		})},
	}
	// On a single-core runner the parallel leg still exercises the pool
	// (two goroutines) and the ratio degenerates to ~1×; the ≥2× speedup
	// claim is for 4+ core machines.
	parallel := runtime.NumCPU()
	if parallel < 2 {
		parallel = 2
	}
	for _, inst := range instances {
		cg := inst.cg
		for _, workers := range []int{1, parallel} {
			b.Run(inst.name+"/workers="+fmt.Sprint(workers), func(b *testing.B) {
				var serialRef *synth.Report
				for i := 0; i < b.N; i++ {
					_, rep, err := synth.Synthesize(cg, lib, synth.Options{
						Merging: merging.Options{Policy: merging.MaxIndexRef},
						Workers: workers,
					})
					if err != nil {
						b.Fatal(err)
					}
					if serialRef == nil {
						serialRef = rep
					} else if rep.Cost != serialRef.Cost {
						b.Fatalf("cost drifted across runs: %v vs %v", rep.Cost, serialRef.Cost)
					}
				}
			})
		}
	}
}

// BenchmarkPricingAllocs measures steady-state candidate pricing on the
// WAN instance with a grown placement scratch, reporting allocations
// per priced candidate (the number the checked-in budget in
// internal/synth's alloc tests pins). ReportAllocs covers the whole
// loop; allocs/candidate is the per-unit view.
func BenchmarkPricingAllocs(b *testing.B) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	enum, err := merging.Enumerate(cg, lib, merging.Options{Policy: merging.MaxIndexRef})
	if err != nil {
		b.Fatal(err)
	}
	var sets [][]model.ChannelID
	for k := 2; k < len(enum.ByK); k++ {
		sets = append(sets, enum.ByK[k]...)
	}
	sc := &place.Scratch{}
	for _, set := range sets { // grow the scratch
		if _, err := place.Optimize(cg, lib, set, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, set := range sets {
			if _, err := place.Optimize(cg, lib, set, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(sets)), "candidates/op")
}

// TestAllExperimentsPass runs the complete experiment suite once; this
// is the repository's reproduction acceptance test.
func TestAllExperimentsPass(t *testing.T) {
	outcomes := []experiments.Outcome{
		experiments.Table1(),
		experiments.Table2(),
		experiments.Fig3(),
		experiments.Candidates(),
		experiments.Fig4(),
		experiments.Fig5(),
		experiments.FlowValidation(),
		experiments.LIDSweep(),
		experiments.BandwidthSweep(),
		experiments.LANCaseStudy(),
		experiments.BaselineComparison(),
		experiments.SteinerGap(),
	}
	if !testing.Short() {
		outcomes = append(outcomes, experiments.Scaling([]int{4, 8}))
	}
	for _, o := range outcomes {
		if !o.Passed() {
			t.Errorf("%s (%s) failed:\n%+v", o.ID, o.Title, o.Records)
		}
	}
}
