// Quickstart: synthesize the communication architecture of a tiny
// four-module system using the public CDCS API.
//
//	go run ./examples/quickstart
//
// The walkthrough covers the full workflow: define a constraint graph
// (ports with positions, channels with bandwidths), define a
// communication library (links and switch nodes), run the synthesizer,
// and inspect the optimum architecture.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/geom"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/synth"
)

func main() {
	// 1. The system: a sensor hub in one corner streams to three
	//    processing units clustered 80 km away, and one local channel
	//    links two of the units.
	cg := model.NewConstraintGraph(geom.Euclidean)
	mustPort := func(name string, x, y float64) model.PortID {
		return cg.MustAddPort(model.Port{Name: name, Position: geom.Pt(x, y)})
	}
	hub1 := mustPort("hub.out1", 0, 0)
	hub2 := mustPort("hub.out2", 0, 0)
	hub3 := mustPort("hub.out3", 0, 0)
	fpgaIn := mustPort("fpga.in", 80, 2)
	gpuIn := mustPort("gpu.in", 82, -1)
	cpuIn := mustPort("cpu.in", 81, 4)
	gpuOut := mustPort("gpu.out", 82, -1)
	cpuIn2 := mustPort("cpu.in2", 81, 4)

	cg.MustAddChannel(model.Channel{Name: "hub-fpga", From: hub1, To: fpgaIn, Bandwidth: 8})
	cg.MustAddChannel(model.Channel{Name: "hub-gpu", From: hub2, To: gpuIn, Bandwidth: 8})
	cg.MustAddChannel(model.Channel{Name: "hub-cpu", From: hub3, To: cpuIn, Bandwidth: 8})
	cg.MustAddChannel(model.Channel{Name: "gpu-cpu", From: gpuOut, To: cpuIn2, Bandwidth: 4})

	// 2. The library: a cheap slow link, an expensive fast link, and
	//    free switches.
	lib := &library.Library{
		Links: []library.Link{
			{Name: "radio", Bandwidth: 10, MaxSpan: math.Inf(1), CostPerLength: 2},
			{Name: "fiber", Bandwidth: 1000, MaxSpan: math.Inf(1), CostPerLength: 4},
		},
		Nodes: []library.Node{
			{Name: "mux", Kind: library.Mux, Cost: 0},
			{Name: "demux", Kind: library.Demux, Cost: 0},
		},
	}

	// 3. Synthesize.
	ig, rep, err := synth.Synthesize(cg, lib, synth.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := ig.Verify(); err != nil {
		log.Fatal("verification failed: ", err)
	}

	// 4. Inspect the result.
	fmt.Printf("point-to-point baseline : $%.2f\n", rep.P2PCost)
	fmt.Printf("synthesized optimum     : $%.2f (%.1f%% saved)\n\n", rep.Cost, rep.SavingsPercent())
	for _, c := range rep.SelectedCandidates() {
		names := make([]string, len(c.Channels))
		for i, ch := range c.Channels {
			names[i] = cg.Channel(ch).Name
		}
		switch c.Kind {
		case "merge":
			fmt.Printf("MERGE  %v\n", names)
			fmt.Printf("       mux at %v, trunk %s (%d segment(s)), demux at %v, $%.2f\n",
				c.Merge.MuxPos, c.Merge.TrunkPlan.Link.Name,
				c.Merge.TrunkPlan.Segments, c.Merge.DemuxPos, c.Cost)
		default:
			fmt.Printf("DIRECT %v: %v\n", names, c.Plan)
		}
	}
	fmt.Printf("\nimplementation graph: %d vertices (%d switches/repeaters), %d links\n",
		ig.NumVertices(), ig.NumCommVertices(), ig.NumLinks())
}
