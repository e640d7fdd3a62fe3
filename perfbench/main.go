// Command perfbench is the repository's benchmark. It drives the
// synthesizer from outside, through its two public surfaces only: the
// repro/cdcs facade in-process for the synth-* workloads, and the
// cdcsd binary's flags and HTTP API for serve-small. It imports no
// internal package and reads the program's counters and spans by name,
// so a change inside the program cannot break its build or move its
// inputs.
//
// Usage (from the repository root; perfbench/run.sh builds the
// benchmark and cdcsd from source first):
//
//	bash perfbench/run.sh --workload synth-wan --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --selfcheck
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) prints the per-layer metrics and writes a Perfetto
// trace. The last line of standard output is one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{"name":{"value":…,"unit":…},…}}
//
// See perfbench/README.md for the workloads, the metrics and what each
// one should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloadNames = []string{"synth-wan", "synth-soc", "serve-small"}

const (
	// setupReps is how many times a run sets up; setup_s is the
	// median.
	setupReps = 15
	// opDeadline bounds one op; an op past it fails.
	opDeadline = 10 * time.Second
)

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// outDir receives the run's diagnostics, Perfetto trace and the
	// daemon's data directory.
	outDir string
	// cdcsd is the daemon binary serve-small starts.
	cdcsd string
	// perturb and killAfter are the self-check's proofs that the gate
	// fires: perturb moves one golden cost by a relative 1e-6;
	// killAfter, when positive, kills the daemon this long into the
	// timed phase.
	perturb   bool
	killAfter time.Duration
	// poolLen, when positive, keeps only the pool's first poolLen
	// entries, so that the self-check's runs, which end on a pass
	// boundary, stay short.
	poolLen int
}

func (c runConfig) name() string {
	trace := 0
	if c.trace {
		trace = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", c.workload, c.seed, trace)
}

func (c runConfig) tracePath() string {
	return filepath.Join(c.outDir, c.name()+".perfetto.json")
}

func (c runConfig) dataRoot() string { return filepath.Join(c.outDir, "data") }

// passClock ends a timed phase on the pass boundary nearest its
// deadline, so that every pool entry carries the same weight in the
// percentiles however fast the host runs, and a run lasts about as
// long as asked.
type passClock struct {
	pass               int
	deadline, passFrom time.Time
}

func newPassClock(pass int, deadline time.Time) *passClock {
	return &passClock{pass: pass, deadline: deadline, passFrom: time.Now()}
}

// more reports whether op n of the phase should run. At a pass
// boundary it stops once the next pass, if it took as long as the
// last, would end more than half a pass past the deadline.
func (p *passClock) more(n int) bool {
	if n == 0 || n%p.pass != 0 {
		return true
	}
	now := time.Now()
	last := now.Sub(p.passFrom)
	p.passFrom = now
	return now.Add(last / 2).Before(p.deadline)
}

func main() {
	var (
		cfg       runConfig
		seconds   = flag.Int("seconds", 30, "length of the timed phase in seconds")
		trace     = flag.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run a few ops per workload and check the output schema and the correctness gate")
		golden    = flag.String("write-golden", "", "write the golden cost table for the default seed to this file and exit")
		null      = flag.String("null-server", "", "serve null ops with records in this directory (serve-small starts it as a child)")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "input seed")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for diagnostics, traces and daemon data")
	flag.StringVar(&cfg.cdcsd, "cdcsd", ".bench_build/perfbench/bin/cdcsd", "cdcsd binary for serve-small")
	flag.Parse()
	cfg.seconds = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1

	var err error
	switch {
	case *golden != "":
		err = writeGolden(*golden)
	case *null != "":
		err = nullServer(*null)
	case *selfcheck:
		err = selfCheck(cfg)
	default:
		err = runAndPrint(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runWorkload makes the seed's pool and runs the workload on it.
func runWorkload(cfg runConfig) (*outcome, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	pool, err := makePool(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	g, err := newGate(cfg.workload, cfg.seed, len(pool))
	if err != nil {
		return nil, err
	}
	if cfg.poolLen > 0 {
		pool = pool[:cfg.poolLen]
	}
	if cfg.perturb && g.want != nil {
		g.want = append([]float64(nil), g.want...)
		g.want[1] *= 1 + 1e-6
	}
	var out *outcome
	if cfg.workload == "serve-small" {
		out, err = runServe(cfg, pool, g)
	} else {
		out, err = runSynth(cfg, pool, g)
	}
	if err != nil {
		return nil, err
	}
	out.diag["workload"] = cfg.workload
	out.diag["seed"] = cfg.seed
	out.diag["seconds"] = cfg.seconds.Seconds()
	out.diag["traced"] = cfg.trace
	out.diag["golden_table"] = g.want != nil
	out.diag["go_version"] = runtime.Version()
	out.diag["nproc"] = runtime.NumCPU()
	out.diag["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.diag["failures"] = out.failures
	return out, nil
}

// runAndPrint runs one workload, writes its diagnostics beside it, and
// prints a readable report followed by the result line.
func runAndPrint(cfg runConfig) error {
	out, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	res, err := out.result(cfg.trace)
	if err != nil {
		return err
	}
	diag, err := json.MarshalIndent(map[string]any{"result": res, "diagnostics": out.diag}, "", "  ")
	if err != nil {
		return err
	}
	diagPath := filepath.Join(cfg.outDir, fmt.Sprintf("%s-%d.json", cfg.name(), time.Now().Unix()))
	if err := os.WriteFile(diagPath, diag, 0o644); err != nil {
		return err
	}

	fmt.Printf("perfbench %s: %d ops attempted, %d failed\n", cfg.name(), res.Attempted, res.Failed)
	for _, f := range out.failures {
		fmt.Printf("  failure: %s\n", f)
	}
	specs := endToEndSpecs
	if cfg.trace {
		specs = perLayerSpecs
	}
	for _, s := range specs {
		if v := res.Metrics[s.name].Value; cfg.trace && v == absentValue {
			fmt.Printf("  %-24s absent\n", s.name)
		} else {
			fmt.Printf("  %-24s %14.6g %s\n", s.name, v, s.unit)
		}
	}
	keys := make([]string, 0, len(out.diag))
	for k := range out.diag {
		if k != "failures" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  diag %-22s %v\n", k, out.diag[k])
	}
	fmt.Printf("  diagnostics in %s\n", diagPath)
	if cfg.trace {
		fmt.Printf("  perfetto trace in %s\n", cfg.tracePath())
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
