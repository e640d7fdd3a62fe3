// cdcs-bench regenerates every table and figure of the paper's
// evaluation (plus this repository's extension studies) and prints
// paper-vs-measured comparison tables. Output of a full run is archived
// in EXPERIMENTS.md.
//
// Usage:
//
//	cdcs-bench                 # run all experiments (E1–E14)
//	cdcs-bench -exp table1     # run one: table1 table2 fig3 candidates fig4 fig5
//	                           #   flowsim lid bwsweep lan baseline steiner ablation scaling
//	cdcs-bench -short          # skip the slow sweeps (ablation, scaling)
//	cdcs-bench -md             # emit Markdown (EXPERIMENTS.md-style sections)
//	cdcs-bench -timeout 2s     # per-synthesis-run deadline (anytime degradation)
//	cdcs-bench -json out.json  # also write a machine-readable baseline
//	                           #   (per-experiment pass/fail, wall time, and
//	                           #   the observability layer's deterministic
//	                           #   algorithm counters); BENCH_seed.json in
//	                           #   the repo root is the committed reference
//	                           #   trajectory gated by cmd/bench-diff
//	cdcs-bench -trace t.json   # write a Chrome trace_event file of every
//	                           #   synthesis phase (chrome://tracing, Perfetto)
//	cdcs-bench -metrics        # print the final metrics snapshot
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/buildinfo"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, table2, fig3, candidates, fig4, fig5, flowsim, lid, bwsweep, lan, baseline, steiner, ablation, scaling")
	short := flag.Bool("short", false, "skip the slow sweeps (ablation, scaling)")
	md := flag.Bool("md", false, "emit Markdown instead of plain text")
	workers := flag.Int("workers", 0, "candidate-pricing worker pool size for every synthesis run (0 = GOMAXPROCS, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-synthesis-run deadline for every experiment (0 = none); expired runs degrade instead of hanging")
	jsonPath := flag.String("json", "", "write a machine-readable baseline (per-experiment pass/fail, wall time, algorithm counters) to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of every synthesis phase to this file")
	metrics := flag.Bool("metrics", false, "print the metrics snapshot after the run")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String("cdcs-bench"))
		return
	}
	// Human-readable status goes to stderr so stdout stays clean for
	// the experiment tables and the -metrics JSON snapshot.
	status := serve.NewLogger(os.Stderr, slog.LevelInfo, false)
	experiments.SetWorkers(*workers)
	experiments.SetTimeout(*timeout)

	// -json needs the counter registry even if the user asked for
	// nothing else; -trace needs the tracer. The sink serves every
	// experiment's synthesis runs.
	sink := obs.New(obs.Config{
		Tracing:     *tracePath != "",
		Metrics:     *jsonPath != "" || *metrics,
		PprofLabels: true,
	})
	experiments.SetSink(sink)

	runners := []struct {
		name string
		slow bool
		run  func() experiments.Outcome
	}{
		{"table1", false, experiments.Table1},
		{"table2", false, experiments.Table2},
		{"fig3", false, experiments.Fig3},
		{"candidates", false, experiments.Candidates},
		{"fig4", false, experiments.Fig4},
		{"fig5", false, experiments.Fig5},
		{"flowsim", false, experiments.FlowValidation},
		{"lid", false, experiments.LIDSweep},
		{"bwsweep", false, experiments.BandwidthSweep},
		{"lan", false, experiments.LANCaseStudy},
		{"baseline", false, experiments.BaselineComparison},
		{"steiner", false, experiments.SteinerGap},
		{"ablation", true, experiments.Ablation},
		{"scaling", true, func() experiments.Outcome { return experiments.Scaling(nil) }},
	}

	baseline := benchfmt.Baseline{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Workers:   *workers,
		Short:     *short,
	}
	if *timeout > 0 {
		baseline.Timeout = timeout.String()
	}

	allPassed := true
	matched := false
	prev := sink.Metrics().Snapshot().CounterMap()
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		if *exp == "all" && *short && r.slow {
			continue
		}
		matched = true
		runStart := time.Now()
		o := r.run()
		elapsed := time.Since(runStart)
		rec := benchfmt.Run{
			ID:        o.ID,
			Name:      r.name,
			Title:     o.Title,
			Passed:    o.Passed(),
			ElapsedMs: float64(elapsed.Microseconds()) / 1000,
		}
		// The registry accumulates across the whole process; the run's
		// own counters are the delta against the previous snapshot.
		if *jsonPath != "" {
			cur := sink.Metrics().Snapshot().CounterMap()
			rec.Counters = counterDelta(prev, cur)
			prev = cur
		}
		baseline.Runs = append(baseline.Runs, rec)
		if *md {
			fmt.Print(report.MarkdownSection(o.ID, o.Title, o.Text, o.Records))
		} else {
			fmt.Printf("=== %s: %s ===\n\n", o.ID, o.Title)
			if o.Text != "" {
				fmt.Println(o.Text)
			}
			fmt.Println(report.FormatRecords(o.Records))
		}
		if o.Passed() {
			if !*md {
				fmt.Printf("%s: PASS\n\n", o.ID)
			}
		} else {
			fmt.Printf("%s: FAIL\n\n", o.ID)
			allPassed = false
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from: ", *exp)
		names := make([]string, len(runners))
		for i, r := range runners {
			names[i] = r.name
		}
		fmt.Fprintln(os.Stderr, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := baseline.Write(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "cdcs-bench: write baseline:", err)
			os.Exit(1)
		}
		status.Info("baseline written", "path", *jsonPath)
	}
	if *tracePath != "" {
		data, err := sink.Tracer().ChromeTrace()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdcs-bench: encode trace:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*tracePath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cdcs-bench: write trace:", err)
			os.Exit(1)
		}
		status.Info("trace written", "path", *tracePath, "viewer", "chrome://tracing or ui.perfetto.dev")
	}
	if *metrics {
		data, err := sink.Metrics().Snapshot().JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdcs-bench: encode metrics:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
	}
	if !allPassed {
		os.Exit(1)
	}
}

// counterDelta returns cur minus prev, dropping zero deltas so
// experiments that run no synthesis carry no counters at all.
func counterDelta(prev, cur map[string]int64) map[string]int64 {
	var out map[string]int64
	for name, v := range cur {
		if d := v - prev[name]; d != 0 {
			if out == nil {
				out = make(map[string]int64)
			}
			out[name] = d
		}
	}
	return out
}
