package experiments

import (
	"fmt"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/workloads"
	"time"
)

// ScalingSizes is the default |A| sweep of experiment E8.
var ScalingSizes = []int{4, 6, 8, 10, 12, 14}

// Scaling (E8) sweeps random clustered WAN instances over |A| and
// compares the exact covering solver against the greedy heuristic:
// runtime, candidate counts, and the optimality gap.
func Scaling(sizes []int) Outcome {
	if len(sizes) == 0 {
		sizes = ScalingSizes
	}
	var rows [][]string
	var recs []report.Record
	for _, n := range sizes {
		cg := workloads.RandomWAN(workloads.RandomWANConfig{
			Seed: int64(1000 + n), Clusters: 3, Channels: n,
		})
		lib := workloads.WANLibrary()
		opts := synthOpts(synth.Options{})

		start := time.Now()
		_, exact, err := synth.SynthesizeContext(synthCtx("scaling"), cg, lib, opts)
		exactTime := time.Since(start)
		if err != nil {
			rows = append(rows, []string{fmt.Sprint(n), "error: " + err.Error(), "", "", "", "", ""})
			continue
		}
		greedyOpts := opts
		greedyOpts.Solver = synth.GreedySolver
		start = time.Now()
		_, greedy, err := synth.SynthesizeContext(synthCtx("scaling"), cg, lib, greedyOpts)
		greedyTime := time.Since(start)
		if err != nil {
			rows = append(rows, []string{fmt.Sprint(n), "greedy error: " + err.Error(), "", "", "", "", ""})
			continue
		}
		gap := 0.0
		if exact.Cost > 0 {
			gap = 100 * (greedy.Cost - exact.Cost) / exact.Cost
		}
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(exact.Enumeration.TotalCandidates()),
			fmt.Sprintf("%.2f", exact.Cost),
			fmt.Sprintf("%.1f%%", exact.SavingsPercent()),
			fmt.Sprintf("%.2f%%", gap),
			exactTime.Round(time.Millisecond).String(),
			greedyTime.Round(time.Millisecond).String(),
		})
		recs = append(recs, report.Record{
			Experiment: "E8",
			Metric:     fmt.Sprintf("|A|=%d exact ≤ greedy", n),
			Paper:      "exact covering is optimal",
			Measured:   fmt.Sprintf("%.2f ≤ %.2f", exact.Cost, greedy.Cost),
			Match:      exact.Cost <= greedy.Cost+1e-9,
		})
	}
	text := report.Table(
		[]string{"|A|", "candidates", "optimal cost", "savings vs p2p", "greedy gap", "exact time", "greedy time"},
		rows)
	return Outcome{ID: "E8", Title: "Scaling — random clustered WANs", Records: recs, Text: text}
}
