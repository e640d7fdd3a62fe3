package experiments

import (
	"fmt"
	"time"

	"repro/internal/library"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// Ablation (E7) quantifies the pruning theorems' effect on the WAN
// instance and a larger random instance: candidate counts, subsets
// tested, and end-to-end synthesis time with each prune toggled off.
func Ablation() Outcome {
	type variant struct {
		name string
		opts merging.Options
	}
	base := merging.Options{}
	variants := []variant{
		{"all prunes (default)", base},
		{"no Lemma 3.1", with(base, func(o *merging.Options) { o.DisableLemma31 = true })},
		{"no Lemma 3.2", with(base, func(o *merging.Options) { o.DisableLemma32 = true })},
		{"no Theorem 3.1", with(base, func(o *merging.Options) { o.DisableTheorem31 = true })},
		{"no Theorem 3.2", with(base, func(o *merging.Options) { o.DisableTheorem32 = true })},
		{"no pruning at all", with(base, func(o *merging.Options) {
			o.DisableLemma31 = true
			o.DisableLemma32 = true
			o.DisableTheorem31 = true
			o.DisableTheorem32 = true
		})},
		{"strict any-ref", merging.Options{Policy: merging.AnyRef}},
	}

	instances := []struct {
		name string
		cg   func() *workloadsGraph
	}{
		{"WAN (|A|=8)", func() *workloadsGraph { return &workloadsGraph{workloads.WAN(), workloads.WANLibrary()} }},
		{"random (|A|=12)", func() *workloadsGraph {
			cg := workloads.RandomWAN(workloads.RandomWANConfig{Seed: 42, Clusters: 3, Channels: 12})
			return &workloadsGraph{cg, workloads.WANLibrary()}
		}},
	}

	var rows [][]string
	var recs []report.Record
	baselineCost := map[string]float64{}
	for _, inst := range instances {
		for _, v := range variants {
			w := inst.cg()
			start := time.Now()
			_, rep, err := synth.SynthesizeContext(synthCtx("ablation"), w.cg, w.lib, synthOpts(synth.Options{Merging: v.opts}))
			elapsed := time.Since(start)
			if err != nil {
				rows = append(rows, []string{inst.name, v.name, "error: " + err.Error(), "", "", ""})
				continue
			}
			enum := rep.Enumeration
			rows = append(rows, []string{
				inst.name, v.name,
				fmt.Sprint(enum.TotalCandidates()),
				fmt.Sprint(enum.SetsTested),
				fmt.Sprintf("%.2f", rep.Cost),
				elapsed.Round(time.Millisecond).String(),
			})
			if v.name == "all prunes (default)" {
				baselineCost[inst.name] = rep.Cost
			} else if base, ok := baselineCost[inst.name]; ok {
				// Soundness: pruning must never change the optimum.
				recs = append(recs, report.Record{
					Experiment: "E7",
					Metric:     fmt.Sprintf("%s: optimum with %q", inst.name, v.name),
					Paper:      "pruning is exact (Section 3 theorems)",
					Measured:   fmt.Sprintf("%.2f vs %.2f", rep.Cost, base),
					Match:      almostEq(rep.Cost, base, 1e-6),
				})
			}
		}
	}
	text := report.Table(
		[]string{"instance", "variant", "candidates", "subsets tested", "optimal cost", "time"}, rows)
	return Outcome{ID: "E7", Title: "Ablation — pruning effectiveness", Records: recs, Text: text}
}

type workloadsGraph struct {
	cg  *model.ConstraintGraph
	lib *library.Library
}

func with(o merging.Options, f func(*merging.Options)) merging.Options {
	f(&o)
	return o
}

func almostEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+b)
}
