// SoC MPEG-4: the paper's Example 2 — repeater insertion on the
// critical global channels of a multi-processor MPEG-4 decoder in a
// 0.18 µm process (Figure 5). The flow segments every channel at the
// technology's critical length l_crit = 0.6 mm and reports the repeater
// budget; the paper's total is 55.
//
//	go run ./examples/soc-mpeg4 [-svg fig5.svg]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/p2p"
	"repro/internal/report"
	"repro/internal/routing"
	"repro/internal/viz"
	"repro/internal/workloads"
)

func main() {
	svgPath := flag.String("svg", "", "write the routed floorplan as SVG to this file")
	flag.Parse()

	cg := workloads.MPEG4()
	tech := workloads.MPEG4Technology()
	lib := tech.Library()

	fmt.Printf("process: %s, l_crit = %.2f mm, %d critical channels\n\n",
		tech.Name, tech.LCrit, cg.NumChannels())

	ig, plans, err := p2p.Synthesize(cg, lib)
	if err != nil {
		log.Fatal(err)
	}
	if err := ig.Verify(); err != nil {
		log.Fatal("verification failed: ", err)
	}

	var rows [][]string
	total := 0
	for i, plan := range plans {
		ch := model.ChannelID(i)
		c := cg.Channel(ch)
		reps := (plan.Segments - 1) * plan.Chains
		total += reps
		rows = append(rows, []string{
			c.Name,
			cg.Port(c.From).Module + " -> " + cg.Port(c.To).Module,
			fmt.Sprintf("%.2f", cg.Distance(ch)),
			fmt.Sprint(plan.Segments),
			fmt.Sprint(reps),
		})
	}
	fmt.Println(report.Table(
		[]string{"channel", "route", "manhattan (mm)", "segments", "repeaters"}, rows))
	fmt.Printf("\ntotal repeaters: %d (paper: %d)\n", total, workloads.MPEG4ExpectedRepeaters)
	fmt.Printf("implementation graph: %d wires, %d repeaters as communication vertices\n",
		ig.NumLinks(), ig.NumCommVertices())

	// Rectilinear embedding of every metal segment (Figure 5 style).
	routed, err := routing.RouteImplementation(ig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routed wirelength: %.2f mm, congestion max/mean overlap: %d/%.2f\n",
		routed.TotalWirelength, routed.MaxOverlap, routed.MeanOverlap)

	if *svgPath != "" {
		routeMap := make(map[graph.ArcID][]geom.Point, len(routed.Routes))
		for _, r := range routed.Routes {
			routeMap[r.Arc] = r.Points
		}
		svg := viz.RoutedImplementation(ig, routeMap, viz.Options{ShowLabels: true})
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SVG written to %s\n", *svgPath)
	}
}
