// WAN: the paper's Example 1 end to end — the five-node wide-area
// network of Figure 3, its Γ and Δ matrices (Tables 1 and 2), the
// candidate-merging counts of Section 4, and the optimum architecture of
// Figure 4 (the {a4, a5, a6} optical trunk).
//
//	go run ./examples/wan [-dot out.dot] [-svg out.svg]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/viz"
	"repro/internal/workloads"
)

func main() {
	dotPath := flag.String("dot", "", "write the implementation graph in DOT format to this file")
	svgPath := flag.String("svg", "", "write the Figure 4 architecture as SVG to this file")
	flag.Parse()

	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	names := []string{"a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8"}

	fmt.Println("== Constraint graph (Figure 3) ==")
	for i := 0; i < cg.NumChannels(); i++ {
		ch := model.ChannelID(i)
		c := cg.Channel(ch)
		fmt.Printf("  %s: %s -> %s  d=%.3f km  b=%.0f Mbps\n",
			c.Name, cg.Port(c.From).Module, cg.Port(c.To).Module,
			cg.Distance(ch), c.Bandwidth)
	}

	fmt.Println("\n== Table 1: Constrained Distance Sum Matrix Γ (km) ==")
	fmt.Println(report.UpperTriangle(names, merging.Gamma(cg).At))
	fmt.Println("== Table 2: Merging Distance Sum Matrix Δ (km) ==")
	fmt.Println(report.UpperTriangle(names, merging.Delta(cg).At))

	ig, rep, err := synth.Synthesize(cg, lib, synth.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := ig.Verify(); err != nil {
		log.Fatal("verification failed: ", err)
	}

	fmt.Println("== Candidate mergings (Section 4) ==")
	for k := 2; k <= 8; k++ {
		if n := rep.Enumeration.Count(k); n > 0 {
			fmt.Printf("  %d-way: %d\n", k, n)
		}
	}

	fmt.Println("\n== Optimum architecture (Figure 4) ==")
	for _, c := range rep.SelectedCandidates() {
		chNames := make([]string, len(c.Channels))
		for i, ch := range c.Channels {
			chNames[i] = cg.Channel(ch).Name
		}
		if c.Kind == "merge" {
			fmt.Printf("  merge %v on %s trunk: mux %v -> demux %v  ($%.2f)\n",
				chNames, c.Merge.TrunkPlan.Link.Name, c.Merge.MuxPos, c.Merge.DemuxPos, c.Cost)
		} else {
			fmt.Printf("  %v: dedicated %s link  ($%.2f)\n", chNames, c.Plan.Link.Name, c.Cost)
		}
	}
	fmt.Printf("\n  point-to-point baseline: $%.2f\n", rep.P2PCost)
	fmt.Printf("  optimum               : $%.2f  (%.1f%% saved)\n", rep.Cost, rep.SavingsPercent())

	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(ig.Dot()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nDOT written to %s\n", *dotPath)
	}
	if *svgPath != "" {
		svg := viz.Implementation(ig, viz.Options{ShowLabels: true})
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SVG written to %s\n", *svgPath)
	}
}
