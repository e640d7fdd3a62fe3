// NoC: an on-chip network synthesis study — eight cores of a 3×3 tiled
// die stream to a memory controller in the center tile. Run through the
// full CDCS flow with an on-chip library (critical-length wires,
// inverter repeaters, router mux/demux), the synthesizer aggregates
// traffic onto shared trunks where that saves repeaters — the seed of
// the bus/NoC topologies later frameworks (COSI) grew from this paper.
//
//	go run ./examples/noc
package main

import (
	"fmt"
	"log"

	"repro/internal/flowsim"
	"repro/internal/merging"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/workloads"
)

func main() {
	cg := workloads.NoC()
	lib := workloads.NoCLibrary()

	ig, rep, err := synth.Synthesize(cg, lib, synth.Options{
		Merging: merging.Options{MaxK: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := ig.Verify(); err != nil {
		log.Fatal("verification failed: ", err)
	}

	fmt.Printf("8 cores -> memory controller, l_crit = 0.6 mm, Manhattan routing\n\n")

	var rows [][]string
	for _, c := range rep.SelectedCandidates() {
		names := ""
		for i, ch := range c.Channels {
			if i > 0 {
				names += "+"
			}
			names += cg.Channel(ch).Name
		}
		structure := c.Kind
		if c.Kind == "merge" {
			structure = fmt.Sprintf("merge via routers at %v/%v", c.Merge.MuxPos, c.Merge.DemuxPos)
		} else {
			structure = c.Plan.Kind()
		}
		rows = append(rows, []string{names, structure, fmt.Sprintf("%.2f", c.Cost)})
	}
	fmt.Println(report.Table([]string{"channels", "structure", "cost (active elems)"}, rows))
	fmt.Printf("\npoint-to-point: %.2f   synthesized: %.2f   saved: %.1f%%\n",
		rep.P2PCost, rep.Cost, rep.SavingsPercent())
	fmt.Printf("architecture: %d wires, %d active elements (repeaters + routers)\n",
		ig.NumLinks(), ig.NumCommVertices())

	res, err := flowsim.Simulate(ig, flowsim.Config{Ticks: 400})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flow simulation: all %d channels sustained = %v\n",
		len(res.Channels), res.AllSatisfied())
}
