package experiments

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// BandwidthSweep (E11) re-solves the WAN instance with the uniform
// channel bandwidth swept from light to heavy and tracks where the
// optimum architecture's crossovers fall:
//
//   - while 3·b ≤ 11 Mbps the full {a4, a5, a6} merge rides a radio
//     trunk — merging is essentially free;
//   - in a middle band (3·b > 11 ≥ 2·b) the optimum drops to a 2-way
//     radio merge: a radio trunk for two channels beats paying the
//     optical premium for all three;
//   - once 2·b > 11 the radio trunk dies entirely and the 3-way optical
//     merge of the paper's operating point (b = 10) takes over.
//
// The experiment verifies the trunk-medium consistency k·b ≤ 11 ⇔ radio
// at every sweep point, the paper's exact architecture at b = 10, and
// that the optimum never exceeds the point-to-point baseline.
func BandwidthSweep() Outcome {
	lib := workloads.WANLibrary()
	var rows [][]string
	var recs []report.Record

	sweep := []float64{1, 2, 3, 3.5, 3.8, 5, 8, 10, 15, 22}
	for _, b := range sweep {
		cg := wanWithBandwidth(b)
		_, rep, err := synth.SynthesizeContext(synthCtx("bwsweep"), cg, lib, synthOpts(synth.Options{}))
		if err != nil {
			return errorOutcome("E11", err)
		}
		mergedSet := ""
		trunk := "-"
		k := 0
		for _, c := range rep.SelectedCandidates() {
			if c.Kind != "merge" {
				continue
			}
			names := map[string]bool{}
			for _, ch := range c.Channels {
				names[cg.Channel(ch).Name] = true
			}
			mergedSet = setString(names)
			trunk = c.Merge.TrunkPlan.Link.Name
			k = len(c.Channels)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", b),
			mergedSet,
			trunk,
			fmt.Sprintf("%.2f", rep.Cost),
			fmt.Sprintf("%.1f%%", rep.SavingsPercent()),
		})

		// Consistency: a merge must exist on this merge-friendly
		// instance, and its trunk medium follows k·b vs the radio rate.
		consistent := k >= 2 && rep.Cost <= rep.P2PCost+1e-9
		if consistent {
			if trunk == "radio" {
				consistent = float64(k)*b <= 11+1e-9
			} else {
				consistent = float64(k)*b > 11-1e-9
			}
		}
		recs = append(recs, report.Record{
			Experiment: "E11",
			Metric:     fmt.Sprintf("b=%.1f: trunk medium consistent with k·b vs 11 Mbps", b),
			Paper:      "radio trunk iff merged load fits one radio link",
			Measured:   fmt.Sprintf("%d-way %s on %s", k, mergedSet, trunk),
			Match:      consistent,
		})
		if b == 10 {
			recs = append(recs, report.Record{
				Experiment: "E11",
				Metric:     "b=10 (paper's operating point)",
				Paper:      "{a4, a5, a6} merged on optical",
				Measured:   fmt.Sprintf("%s on %s", mergedSet, trunk),
				Match:      mergedSet == "{a4, a5, a6}" && trunk == "optical",
			})
		}
	}
	text := report.Table([]string{"b (Mbps)", "merged set", "trunk", "optimal cost", "savings"}, rows)
	return Outcome{ID: "E11", Title: "Bandwidth sweep — WAN crossover analysis", Records: recs, Text: text}
}

// wanWithBandwidth rebuilds the WAN instance with a different uniform
// channel bandwidth.
func wanWithBandwidth(b float64) *model.ConstraintGraph {
	base := workloads.WAN()
	cg := model.NewConstraintGraph(geom.Euclidean)
	for i := 0; i < base.NumPorts(); i++ {
		cg.MustAddPort(base.Port(model.PortID(i)))
	}
	for i := 0; i < base.NumChannels(); i++ {
		c := base.Channel(model.ChannelID(i))
		c.Bandwidth = b
		cg.MustAddChannel(c)
	}
	return cg
}

// LANCaseStudy (E12) runs the Section 2 fiber-vs-wireless LAN scenario:
// a campus network where the synthesizer should assign wireless to the
// thin client channels and fiber to the fat backbone flows — the
// "combination of the two" outcome the paper motivates.
func LANCaseStudy() Outcome {
	cg := workloads.LAN()
	lib := workloads.LANLibrary()
	_, rep, err := synth.SynthesizeContext(synthCtx("lan"), cg, lib, synthOpts(synth.Options{}))
	if err != nil {
		return errorOutcome("E12", err)
	}

	linkOf := map[string]string{}
	mergedOn := map[string]string{}
	var rows [][]string
	for _, c := range rep.SelectedCandidates() {
		if c.Kind == "p2p" {
			name := cg.Channel(c.Channels[0]).Name
			linkOf[name] = c.Plan.Link.Name
			rows = append(rows, []string{name, c.Plan.Kind(), c.Plan.Link.Name, fmt.Sprintf("%.1f", c.Cost)})
		} else {
			for _, ch := range c.Channels {
				mergedOn[cg.Channel(ch).Name] = c.Merge.TrunkPlan.Link.Name
			}
			names := map[string]bool{}
			for _, ch := range c.Channels {
				names[cg.Channel(ch).Name] = true
			}
			rows = append(rows, []string{setString(names), "merge", c.Merge.TrunkPlan.Link.Name, fmt.Sprintf("%.1f", c.Cost)})
		}
	}
	// Media actually deployed anywhere in the architecture: dedicated
	// links, merge trunks, and merge access legs all count.
	media := map[string]bool{}
	for _, l := range linkOf {
		media[l] = true
	}
	for _, c := range rep.SelectedCandidates() {
		if c.Kind != "merge" {
			continue
		}
		media[c.Merge.TrunkPlan.Link.Name] = true
		for _, p := range c.Merge.AccessIn {
			media[p.Link.Name] = true
		}
		for _, p := range c.Merge.AccessOut {
			media[p.Link.Name] = true
		}
	}
	usesWireless := media["wireless"]
	usesFiber := media["fiber"]
	fatOnFiber := true
	for _, fat := range []string{"replic", "uplink", "dnlink", "backupA"} {
		l := linkOf[fat]
		if m, ok := mergedOn[fat]; ok {
			l = m
		}
		if l != "fiber" {
			fatOnFiber = false
		}
	}
	recs := []report.Record{
		{
			Experiment: "E12", Metric: "heterogeneous mix chosen",
			Paper:    "\"a fiber-optic network or a wireless network, or a combination of the two\"",
			Measured: fmt.Sprintf("wireless=%v fiber=%v", usesWireless, usesFiber),
			Match:    usesWireless && usesFiber,
		},
		{
			Experiment: "E12", Metric: "fat flows (≥300 Mbps) on fiber",
			Paper:    "bandwidth-driven medium selection",
			Measured: yesNo(fatOnFiber),
			Match:    fatOnFiber,
		},
		{
			Experiment: "E12", Metric: "optimum vs point-to-point",
			Paper:    "never worse",
			Measured: fmt.Sprintf("%.1f vs %.1f", rep.Cost, rep.P2PCost),
			Match:    rep.Cost <= rep.P2PCost+1e-9,
		},
	}
	text := report.Table([]string{"channels", "structure", "medium", "cost"}, rows)
	return Outcome{ID: "E12", Title: "LAN case study — fiber vs wireless (Section 2 scenario)", Records: recs, Text: text}
}
