package experiments

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/merging"
	"repro/internal/report"
	"repro/internal/steiner"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// SteinerGap (E14) quantifies the structural restriction discussed in
// docs/ALGORITHM.md: the paper's merging realization is a two-hub star
// (mux → trunk → demux), while the cheapest conceivable interconnect
// over the same endpoints is a rectilinear Steiner minimal tree. For
// every merging the synthesizer selects on an on-chip instance, the
// experiment compares the star's wirelength against the Steiner lower
// bound — the ratio measures how much wire the two-hub restriction
// leaves on the table (bandwidth legality aside, since a Steiner
// topology shares wires more aggressively than Definition 2.8 allows).
func SteinerGap() Outcome {
	cg, lib := workloads.NoC(), workloads.NoCLibrary()
	_, rep, err := synth.SynthesizeContext(synthCtx("steiner"), cg, lib, synthOpts(synth.Options{
		Merging: merging.Options{MaxK: 4},
	}))
	if err != nil {
		return errorOutcome("E14", err)
	}

	var rows [][]string
	var recs []report.Record
	merges := 0
	for _, c := range rep.SelectedCandidates() {
		if c.Kind != "merge" {
			continue
		}
		merges++
		// Star wirelength: trunk plus all access legs (realized
		// distances, not costs).
		norm := cg.Norm()
		star := norm.Distance(c.Merge.MuxPos, c.Merge.DemuxPos)
		var terminals []geom.Point
		for _, ch := range c.Channels {
			cc := cg.Channel(ch)
			src := cg.Position(cc.From)
			dst := cg.Position(cc.To)
			star += norm.Distance(src, c.Merge.MuxPos) + norm.Distance(c.Merge.DemuxPos, dst)
			for _, p := range []geom.Point{src, dst} {
				dup := false
				for _, q := range terminals {
					if q.Eq(p) {
						dup = true
						break
					}
				}
				if !dup {
					terminals = append(terminals, p)
				}
			}
		}
		st, err := steiner.SteinerTree(terminals)
		if err != nil {
			return errorOutcome("E14", err)
		}
		hp := steiner.HalfPerimeter(terminals)
		ratio := star / st.Length
		names := map[string]bool{}
		for _, ch := range c.Channels {
			names[cg.Channel(ch).Name] = true
		}
		rows = append(rows, []string{
			setString(names),
			fmt.Sprintf("%.2f", star),
			fmt.Sprintf("%.2f", st.Length),
			fmt.Sprintf("%.2f", hp),
			fmt.Sprintf("%.2f×", ratio),
		})
		recs = append(recs, report.Record{
			Experiment: "E14",
			Metric:     fmt.Sprintf("merge %s: star vs Steiner bound", setString(names)),
			Paper:      "star ≥ Steiner (lower bound); modest overhead expected",
			Measured:   fmt.Sprintf("%.2f ≥ %.2f (%.2f×)", star, st.Length, ratio),
			Match:      ratio >= 1-1e-9 && ratio <= 3,
		})
	}
	if merges == 0 {
		recs = append(recs, report.Record{
			Experiment: "E14", Metric: "mergings selected",
			Paper: "≥ 1 on the aggregation-friendly NoC instance", Measured: "0", Match: false,
		})
	}
	text := report.Table(
		[]string{"merged set", "star wire (mm)", "steiner bound (mm)", "HPWL (mm)", "overhead"},
		rows)
	return Outcome{
		ID:      "E14",
		Title:   "Steiner gap — two-hub merging vs topology-free lower bound",
		Records: recs,
		Text:    text,
	}
}
