// LAN: the fiber-vs-wireless scenario from the paper's Section 2 — a
// campus network where each channel may be realized as a fiber-optic
// link, a wireless link, or a combination of the two, and the
// synthesizer picks the cost-optimal heterogeneous mix.
//
//	go run ./examples/lan
package main

import (
	"fmt"
	"log"

	"repro/internal/flowsim"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/workloads"
)

func main() {
	cg := workloads.LAN()
	lib := workloads.LANLibrary()

	fmt.Printf("campus LAN: %d channels, media: wireless (54 Mbps, $1/m) vs fiber (10 Gbps, $4/m)\n\n",
		cg.NumChannels())

	ig, rep, err := synth.Synthesize(cg, lib, synth.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := ig.Verify(); err != nil {
		log.Fatal("verification failed: ", err)
	}

	var rows [][]string
	for _, c := range rep.SelectedCandidates() {
		names := ""
		for i, ch := range c.Channels {
			if i > 0 {
				names += "+"
			}
			names += cg.Channel(ch).Name
		}
		switch c.Kind {
		case "p2p":
			rows = append(rows, []string{names, c.Plan.Kind(), c.Plan.Link.Name, fmt.Sprintf("%.1f", c.Cost)})
		case "merge":
			rows = append(rows, []string{names, "merge", c.Merge.TrunkPlan.Link.Name + " trunk", fmt.Sprintf("%.1f", c.Cost)})
		}
	}
	fmt.Println(report.Table([]string{"channels", "structure", "medium", "cost ($)"}, rows))
	fmt.Printf("\npoint-to-point: $%.1f   optimum: $%.1f   saved: %.1f%%\n",
		rep.P2PCost, rep.Cost, rep.SavingsPercent())

	// Validate the architecture under concurrent load.
	res, err := flowsim.Simulate(ig, flowsim.Config{Ticks: 600})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flow simulation: all %d channels sustained = %v\n",
		len(res.Channels), res.AllSatisfied())
}
