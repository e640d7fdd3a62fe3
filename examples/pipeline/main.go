// Pipeline: the complete front-to-back flow around the paper's
// algorithm — derive channel bandwidths from traffic models, place the
// modules, synthesize the communication architecture, embed the wires,
// and validate under load.
//
//	go run ./examples/pipeline [-seed 42]
//
// Stages:
//  1. traffic    — on/off source models per logical stream; effective
//     bandwidth at a loss target becomes the channel requirement b(a);
//  2. floorplan  — simulated-annealing placement of the modules
//     minimizing bandwidth-weighted wirelength;
//  3. synth      — the paper's exact two-step synthesis;
//  4. routing    — rectilinear wire embedding with congestion stats;
//  5. flowsim    — replay all channels concurrently; every demand must
//     be sustained.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/floorplan"
	"repro/internal/flowsim"
	"repro/internal/merging"
	"repro/internal/report"
	"repro/internal/routing"
	"repro/internal/soc"
	"repro/internal/synth"
	"repro/internal/traffic"
)

func main() {
	seed := flag.Int64("seed", 42, "random seed for the floorplanner")
	flag.Parse()

	// --- Stage 1: traffic characterization. ---
	type stream struct {
		name     string
		from, to int
		src      traffic.Source
	}
	modules := []floorplan.Module{
		{Name: "cpu"}, {Name: "dsp"}, {Name: "gpu"},
		{Name: "mem"}, {Name: "io"}, {Name: "npu"},
	}
	streams := []stream{
		{"cpu-mem", 0, 3, traffic.Source{Peak: 12, MeanOn: 40, MeanOff: 40}},
		{"dsp-mem", 1, 3, traffic.Source{Peak: 8, MeanOn: 60, MeanOff: 20}},
		{"gpu-mem", 2, 3, traffic.Source{Peak: 20, MeanOn: 30, MeanOff: 90}},
		{"mem-gpu", 3, 2, traffic.Source{Peak: 16, MeanOn: 50, MeanOff: 50}},
		{"io-cpu", 4, 0, traffic.Source{Peak: 4, MeanOn: 10, MeanOff: 90}},
		{"npu-mem", 5, 3, traffic.Source{Peak: 10, MeanOn: 80, MeanOff: 20}},
		{"cpu-npu", 0, 5, traffic.Source{Peak: 6, MeanOn: 30, MeanOff: 60}},
	}
	const buffer, loss = 150.0, 1e-4
	var demands []floorplan.Demand
	var trafficRows [][]string
	for _, s := range streams {
		bw, err := s.src.EffectiveBandwidth(buffer, loss)
		if err != nil {
			log.Fatal(err)
		}
		demands = append(demands, floorplan.Demand{From: s.from, To: s.to, Bandwidth: bw})
		trafficRows = append(trafficRows, []string{
			s.name,
			fmt.Sprintf("%.1f", s.src.Peak),
			fmt.Sprintf("%.2f", s.src.MeanRate()),
			fmt.Sprintf("%.2f", bw),
		})
	}
	fmt.Println("stage 1: effective bandwidths (buffer 150, loss 1e-4)")
	fmt.Println(report.Table([]string{"stream", "peak", "mean", "required b(a)"}, trafficRows))

	// --- Stage 2: floorplan. ---
	pl, err := floorplan.Place(modules, demands, floorplan.Options{Seed: *seed, SlotPitch: 1.8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstage 2: floorplan wirelength %.1f (bandwidth-weighted mm)\n", pl.Wirelength)
	for i, m := range modules {
		fmt.Printf("  %-4s at %v\n", m.Name, pl.Positions[i])
	}

	// --- Stage 3: synthesis. ---
	cg, err := floorplan.ToConstraintGraph(modules, demands, pl)
	if err != nil {
		log.Fatal(err)
	}
	lib := soc.Tech180nm().Library()
	ig, rep, err := synth.Synthesize(cg, lib, synth.Options{
		Merging: merging.Options{MaxK: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := ig.Verify(); err != nil {
		log.Fatal("verification failed: ", err)
	}
	fmt.Printf("\nstage 3: synthesized %.2f active elements (p2p %.2f, %.1f%% saved), %d merges\n",
		rep.Cost, rep.P2PCost, rep.SavingsPercent(), len(rep.SelectedCandidates())-countP2P(rep))

	// --- Stage 4: routing. ---
	routed, err := routing.RouteImplementation(ig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 4: routed %.1f mm of wire, congestion max/mean %d/%.2f\n",
		routed.TotalWirelength, routed.MaxOverlap, routed.MeanOverlap)

	// --- Stage 5: validation under load. ---
	res, err := flowsim.Simulate(ig, flowsim.Config{Ticks: 500})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 5: flow simulation — all %d channels sustained = %v\n",
		len(res.Channels), res.AllSatisfied())
	if !res.AllSatisfied() {
		log.Fatal("pipeline produced a starving architecture")
	}
}

func countP2P(rep *synth.Report) int {
	n := 0
	for _, c := range rep.SelectedCandidates() {
		if c.Kind == "p2p" {
			n++
		}
	}
	return n
}
