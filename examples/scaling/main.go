// Scaling: sweep random clustered WAN instances over the number of
// constraint arcs and compare the exact covering solver against the
// greedy heuristic — the repository's E8 extension study.
//
//	go run ./examples/scaling [-sizes 4,8,12] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"log"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/workloads"
	"strconv"
	"strings"
	"time"
)

func main() {
	sizesFlag := flag.String("sizes", "4,6,8,10,12", "comma-separated channel counts")
	seed := flag.Int64("seed", 7, "base random seed")
	flag.Parse()

	var sizes []int
	for _, s := range strings.Split(*sizesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			log.Fatalf("bad size %q", s)
		}
		sizes = append(sizes, n)
	}

	lib := workloads.WANLibrary()
	var rows [][]string
	for _, n := range sizes {
		cg := workloads.RandomWAN(workloads.RandomWANConfig{
			Seed: *seed + int64(n), Clusters: 3, Channels: n,
		})
		opts := synth.Options{}

		start := time.Now()
		_, exact, err := synth.Synthesize(cg, lib, opts)
		exactTime := time.Since(start)
		if err != nil {
			log.Fatalf("|A|=%d: %v", n, err)
		}

		opts.Solver = synth.GreedySolver
		_, greedy, err := synth.Synthesize(cg, lib, opts)
		if err != nil {
			log.Fatalf("|A|=%d greedy: %v", n, err)
		}
		gap := 0.0
		if exact.Cost > 0 {
			gap = 100 * (greedy.Cost - exact.Cost) / exact.Cost
		}
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(exact.Enumeration.TotalCandidates()),
			fmt.Sprintf("%.1f", exact.P2PCost),
			fmt.Sprintf("%.1f", exact.Cost),
			fmt.Sprintf("%.1f%%", exact.SavingsPercent()),
			fmt.Sprintf("%.2f%%", gap),
			exactTime.Round(time.Millisecond).String(),
		})
	}
	fmt.Println(report.Table(
		[]string{"|A|", "candidates", "p2p cost", "optimal", "savings", "greedy gap", "time"}, rows))
}
