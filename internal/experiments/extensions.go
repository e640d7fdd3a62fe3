package experiments

import (
	"fmt"

	"repro/internal/flowsim"
	"repro/internal/lid"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// FlowValidation (E9) simulates the synthesized Figure 4 architecture
// under concurrent traffic and contrasts the paper's multiplexer
// semantics (trunk sized for Σ bᵢ) with the literal Definition 2.8
// bound (trunk sized for max bᵢ): the former sustains all demands, the
// latter visibly starves the merged channels.
func FlowValidation() Outcome {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	ig, _, err := synth.SynthesizeContext(synthCtx("flowsim"), cg, lib, synthOpts(synth.Options{}))
	if err != nil {
		return errorOutcome("E9", err)
	}
	res, err := flowsim.Simulate(ig, flowsim.Config{Ticks: 600})
	if err != nil {
		return errorOutcome("E9", err)
	}

	var rows [][]string
	for _, c := range res.Channels {
		rows = append(rows, []string{
			c.Name,
			fmt.Sprintf("%.1f", c.Offered),
			fmt.Sprintf("%.2f", c.Delivered),
			yesNo(c.Satisfied()),
		})
	}
	var peak float64
	for _, l := range res.Links {
		if l.PeakUtilization > peak {
			peak = l.PeakUtilization
		}
	}
	recs := []report.Record{
		{
			Experiment: "E9", Metric: "all channels sustain their demand (sum-rule trunk)",
			Paper:    "implied by Definition 2.4 satisfaction",
			Measured: yesNo(res.AllSatisfied()),
			Match:    res.AllSatisfied(),
		},
		{
			Experiment: "E9", Metric: "peak link utilization",
			Paper:    "≤ 1 (no link exceeds its bandwidth)",
			Measured: fmt.Sprintf("%.3f", peak),
			Match:    peak <= 1.0+1e-9,
		},
	}
	text := report.Table([]string{"channel", "offered", "delivered", "satisfied"}, rows)
	return Outcome{ID: "E9", Title: "Flow simulation — synthesized WAN under load", Records: recs, Text: text}
}

// LIDSweep (E10) runs the conclusion's latency-insensitive extension:
// the MPEG-4 instance swept across deep-sub-micron generations with the
// buffer/latch cost function. At 0.18 µm the analysis must reduce to
// the plain Figure 5 result (55 stateless repeaters, single cycle).
func LIDSweep() Outcome {
	cg := workloads.MPEG4()
	const latchPremium = 4.0

	var rows [][]string
	var recs []report.Record
	prevRelays := -1
	for _, gen := range lid.DSMGenerations() {
		rep, err := lid.Analyze(cg, lid.ParamsFor(gen, latchPremium))
		if err != nil {
			return errorOutcome("E10", err)
		}
		rows = append(rows, []string{
			gen.Name,
			fmt.Sprintf("%.2f", gen.LCritMM),
			fmt.Sprintf("%.1f", gen.ReachMM),
			fmt.Sprint(rep.TotalBuffers),
			fmt.Sprint(rep.TotalRelays),
			fmt.Sprint(rep.MaxLatencyCycles),
			fmt.Sprintf("%.0f", rep.TotalCost),
		})
		if gen.Name == "0.18um" {
			recs = append(recs, report.Record{
				Experiment: "E10", Metric: "0.18 µm reduces to Figure 5",
				Paper:    "55 repeaters, all links single cycle",
				Measured: fmt.Sprintf("%d buffers, %d relays, max %d cycle(s)", rep.TotalBuffers, rep.TotalRelays, rep.MaxLatencyCycles),
				Match:    rep.TotalBuffers == workloads.MPEG4ExpectedRepeaters && rep.SingleCycle(),
			})
		}
		if prevRelays >= 0 && rep.TotalRelays < prevRelays {
			recs = append(recs, report.Record{
				Experiment: "E10", Metric: gen.Name + " relay monotonicity",
				Paper: "DSM needs more relay stations", Measured: "decreased", Match: false,
			})
		}
		prevRelays = rep.TotalRelays
	}
	recs = append(recs, report.Record{
		Experiment: "E10", Metric: "relay stations appear below 0.18 µm",
		Paper:    "\"with DSM (0.13 µm and below) this will be true for fewer wires\"",
		Measured: fmt.Sprintf("%d relays at 65nm", prevRelays),
		Match:    prevRelays > 0,
	})
	text := report.Table(
		[]string{"process", "l_crit (mm)", "reach (mm)", "buffers", "relay stations", "max latency (cyc)", "cost"},
		rows)
	return Outcome{ID: "E10", Title: "LID extension — DSM sweep of the MPEG-4 decoder", Records: recs, Text: text}
}
