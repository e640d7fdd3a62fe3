// bench-diff is the CI benchmark-regression gate: it compares a fresh
// cdcs-bench baseline against the committed seed trajectory and exits
// non-zero on a regression.
//
// Usage:
//
//	cdcs-bench -short -json bench.json
//	bench-diff -seed BENCH_seed.json -run bench.json
//
// Two gates apply per experiment. Wall time may regress by at most
// -time-tolerance (fractional; default 0.30 = +30%) plus -abs-slack-ms
// of absolute grace for sub-millisecond runs; speedups always pass.
// The observability layer's algorithm counters (prune hits, B&B nodes,
// …) must match the seed exactly — they are pure functions of the
// instance, so any drift is an algorithmic change that needs a seed
// regeneration in the same commit (go run ./cmd/cdcs-bench -short
// -json BENCH_seed.json).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchfmt"
	"repro/internal/buildinfo"
)

func main() {
	seedPath := flag.String("seed", "BENCH_seed.json", "committed reference baseline")
	runPath := flag.String("run", "", "fresh baseline to gate (required)")
	timeTol := flag.Float64("time-tolerance", 0.30, "allowed fractional wall-time regression per run")
	absSlack := flag.Float64("abs-slack-ms", 50, "absolute grace in ms added to every time limit (negative disables)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String("bench-diff"))
		return
	}
	if *runPath == "" {
		fmt.Fprintln(os.Stderr, "bench-diff: -run is required")
		flag.Usage()
		os.Exit(2)
	}

	seed, err := benchfmt.Load(*seedPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-diff: load seed:", err)
		os.Exit(2)
	}
	cur, err := benchfmt.Load(*runPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-diff: load run:", err)
		os.Exit(2)
	}

	violations := benchfmt.Diff(seed, cur, benchfmt.DiffOptions{
		TimeTolerance: *timeTol,
		AbsSlackMs:    *absSlack,
	})
	if len(violations) == 0 {
		counters := 0
		for _, r := range seed.Runs {
			counters += len(r.Counters)
		}
		fmt.Printf("bench-diff: OK — %d runs within +%d%% of seed (%s), %d counters matched\n",
			len(seed.Runs), int(*timeTol*100), seed.GoVersion, counters)
		return
	}
	fmt.Fprintf(os.Stderr, "bench-diff: %d violation(s) against %s:\n", len(violations), *seedPath)
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "  "+v.String())
	}
	os.Exit(1)
}
