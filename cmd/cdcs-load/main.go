// cdcs-load is an open-loop traffic generator for cdcsd: it offers a
// mixed synthesis workload at a fixed target QPS against one daemon
// or several replicas, waits each accepted job to a terminal state
// under a per-request deadline, and emits a machine-readable JSON
// report — latency percentiles, achieved throughput,
// shed/degrade/error rates, and per-replica balance.
//
// Usage:
//
//	cdcs-load -targets http://a:8080,http://b:8080 [-qps 50]
//	          [-duration 10s] [-deadline 30s] [-mix wan=2,lan=2,mcm=1]
//	          [-retries 1] [-report out.json] [-trace-seed N]
//	          [-no-trace] [-log-level warn] [-version]
//
// Arrivals are open-loop: the generator keeps offering work at the
// target rate whether or not earlier requests finished, so overload
// behavior (tiered degrade, shed, Retry-After) is actually reachable
// and measured instead of self-throttled away. Arrivals round-robin
// across the targets, and with -retries above 1 a shed arrival retries
// on the next target; the report attributes every completed job to the
// replica that accepted it, which is the one that ran it. Unless
// -no-trace is set, every arrival also roots a fresh distributed trace
// (traceparent header), and the report names the p99-slowest trace IDs
// as exemplars, each with the replica that ran it — fetch its spans
// with `curl <server>/v1/traces/<trace_id>`.
//
// The exit status is 0 whenever the run itself completes — overload
// outcomes are data, not failures. CI asserts on the report with jq.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/serve"
)

// exampleBodies maps mix entry names to submission bodies; the daemon
// labels each job with its example's name.
var exampleBodies = map[string]string{
	"wan":   `{"example":"wan","options":{"workers":1}}`,
	"lan":   `{"example":"lan","options":{"workers":1}}`,
	"mcm":   `{"example":"mcm","options":{"workers":1}}`,
	"noc":   `{"example":"noc","options":{"workers":1}}`,
	"mpeg4": `{"example":"mpeg4","options":{"workers":1}}`,
}

func main() {
	targets := flag.String("targets", "", "comma-separated cdcsd base URLs (required); arrivals round-robin across them")
	qps := flag.Float64("qps", 50, "open-loop arrival rate, requests per second")
	duration := flag.Duration("duration", 10*time.Second, "how long to offer arrivals; the run then drains in-flight requests")
	deadline := flag.Duration("deadline", 30*time.Second, "per-request end-to-end deadline (submit through terminal state)")
	mix := flag.String("mix", "wan=2,lan=2,mcm=1", "weighted workload mix as name=weight entries (names: wan, lan, mcm, noc, mpeg4)")
	retries := flag.Int("retries", 1, "submission attempts per arrival, rotating through the targets; 1 counts shed responses instead of retrying them")
	traceSeed := flag.Uint64("trace-seed", 0, "seed for per-arrival distributed-trace IDs; 0 seeds randomly. The report's exemplars name the p99-slowest trace IDs and the server that ran each, whose GET /v1/traces/{trace_id} returns its spans")
	noTrace := flag.Bool("no-trace", false, "disable per-arrival traceparent stamping and report exemplars")
	reportPath := flag.String("report", "", "write the JSON report to this file instead of stdout")
	logLevel := flag.String("log-level", "warn", "log level: debug, info, warn, error")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.String("cdcs-load"))
		return
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "cdcs-load: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	log := serve.NewLogger(os.Stderr, level, false)

	if *targets == "" {
		fmt.Fprintln(os.Stderr, "cdcs-load: -targets is required (comma-separated cdcsd base URLs)")
		os.Exit(2)
	}
	var targetList []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targetList = append(targetList, t)
		}
	}
	specs, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdcs-load:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Tracing is on by default: every arrival roots a fresh trace, and
	// the report's exemplars point at the slowest ones for follow-up
	// with GET <server>/v1/traces/<trace_id>.
	var ids *obs.IDSource
	if !*noTrace {
		ids = obs.NewIDSource(*traceSeed)
	}

	log.Info("cdcs-load starting",
		"targets", *targets, "qps", *qps, "duration", duration.String(), "mix", *mix)
	rep, err := load.Run(ctx, load.Config{
		Targets:  targetList,
		QPS:      *qps,
		Duration: *duration,
		Deadline: *deadline,
		Mix:      specs,
		Attempts: *retries,
		Registry: obs.NewRegistry(),
		Logger:   log,
		TraceIDs: ids,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdcs-load:", err)
		os.Exit(1)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdcs-load: encode report:", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cdcs-load: write report:", err)
			os.Exit(1)
		}
		log.Info("report written", "path", *reportPath)
	} else {
		os.Stdout.Write(out)
	}
}

// parseMix turns "wan=2,lan=1" into weighted load specs.
func parseMix(s string) ([]load.Spec, error) {
	var specs []load.Spec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(entry, "=")
		weight := 1
		if hasWeight {
			var err error
			if weight, err = strconv.Atoi(weightStr); err != nil || weight <= 0 {
				return nil, fmt.Errorf("bad -mix entry %q: weight must be a positive integer", entry)
			}
		}
		body, ok := exampleBodies[name]
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q: unknown example %q (wan, lan, mcm, noc, mpeg4)", entry, name)
		}
		specs = append(specs, load.Spec{Name: name, Body: body, Weight: weight})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty -mix %q", s)
	}
	return specs, nil
}
