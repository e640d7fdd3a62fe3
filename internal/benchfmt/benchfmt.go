// Package benchfmt defines the machine-readable benchmark baseline
// written by cmd/cdcs-bench -json and compared by cmd/bench-diff. The
// committed reference trajectory is BENCH_seed.json in the repo root;
// CI regenerates a fresh baseline on every push and gates the build on
// Diff against the seed.
//
// A baseline has two kinds of payload per run: wall-clock time, which
// is compared with a tolerance (runners are noisy), and the
// observability layer's algorithm counters (prune hits, B&B nodes, …),
// which are pure functions of the instance and compared exactly — a
// counter drift is an algorithmic change, not noise, and must be
// reviewed via a seed regeneration in the same commit.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Baseline is one cdcs-bench trajectory point: the environment it ran
// in plus a record per experiment.
type Baseline struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCPU"`
	Workers   int    `json:"workers"`
	Timeout   string `json:"timeout,omitempty"`
	Short     bool   `json:"short"`
	Runs      []Run  `json:"runs"`
}

// Run records one experiment's outcome.
type Run struct {
	ID        string  `json:"id"`
	Name      string  `json:"name"`
	Title     string  `json:"title"`
	Passed    bool    `json:"passed"`
	ElapsedMs float64 `json:"elapsedMs"`
	// Counters is the run's delta of the observability registry's
	// deterministic counters (obs.Snapshot.CounterMap before/after).
	// Older baselines (and runs without -json) omit it; Diff only
	// compares counters present on both sides.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Load reads a baseline JSON file.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &b, nil
}

// Write writes the baseline as indented JSON (the committed-seed
// format: stable field order, trailing newline).
func (b *Baseline) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// DiffOptions tunes the gate.
type DiffOptions struct {
	// TimeTolerance is the allowed fractional slowdown per run; 0 means
	// the default 0.30 (+30%). Only regressions fail — a faster run is
	// never a violation.
	TimeTolerance float64
	// AbsSlackMs is an absolute grace added to every run's time limit,
	// so sub-millisecond experiments (whose relative variance is huge)
	// do not flap the gate; 0 means the default 50ms. Set negative to
	// disable the grace entirely.
	AbsSlackMs float64
}

func (o DiffOptions) timeTolerance() float64 {
	if o.TimeTolerance == 0 {
		return 0.30
	}
	return o.TimeTolerance
}

func (o DiffOptions) absSlackMs() float64 {
	if o.AbsSlackMs == 0 {
		return 50
	}
	if o.AbsSlackMs < 0 {
		return 0
	}
	return o.AbsSlackMs
}

// Violation is one gate failure, already formatted for the log.
type Violation struct {
	// RunID is the experiment the violation is about ("E5"), or "" for
	// baseline-level problems.
	RunID string
	// Kind classifies the violation: "missing", "failed", "time",
	// "counter".
	Kind string
	// Detail is the human-readable explanation.
	Detail string
}

func (v Violation) String() string {
	if v.RunID == "" {
		return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
	}
	return fmt.Sprintf("%s [%s]: %s", v.RunID, v.Kind, v.Detail)
}

// Diff compares a current baseline against the committed seed and
// returns the violations, in seed-run order (counter violations
// name-sorted within a run) so the gate's output is deterministic. An
// empty result means the gate passes. Runs present only in cur are
// informational, not violations — new experiments extend the seed on
// the next regeneration.
func Diff(seed, cur *Baseline, opt DiffOptions) []Violation {
	byID := make(map[string]*Run, len(cur.Runs))
	for i := range cur.Runs {
		byID[cur.Runs[i].ID] = &cur.Runs[i]
	}
	var out []Violation
	for i := range seed.Runs {
		s := &seed.Runs[i]
		c, ok := byID[s.ID]
		if !ok {
			out = append(out, Violation{RunID: s.ID, Kind: "missing",
				Detail: fmt.Sprintf("experiment %q in seed but absent from current run", s.Name)})
			continue
		}
		if !c.Passed {
			out = append(out, Violation{RunID: s.ID, Kind: "failed",
				Detail: fmt.Sprintf("experiment %q failed (seed passed=%v)", c.Name, s.Passed)})
		}
		limit := s.ElapsedMs*(1+opt.timeTolerance()) + opt.absSlackMs()
		if c.ElapsedMs > limit {
			out = append(out, Violation{RunID: s.ID, Kind: "time",
				Detail: fmt.Sprintf("%.3fms exceeds limit %.3fms (seed %.3fms, tolerance +%d%% +%.0fms slack)",
					c.ElapsedMs, limit, s.ElapsedMs,
					int(opt.timeTolerance()*100), opt.absSlackMs())})
		}
		out = append(out, diffCounters(s, c)...)
	}
	return out
}

// diffCounters exact-matches every counter of the seed run against the
// current run. One side lacking a counter the other has is a violation
// only when the seed has it and the current run recorded counters at
// all — an old seed without counters, or a current run without
// metrics, compares vacuously.
func diffCounters(s, c *Run) []Violation {
	if len(s.Counters) == 0 || c.Counters == nil {
		return nil
	}
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Violation
	for _, name := range names {
		got, ok := c.Counters[name]
		if !ok {
			out = append(out, Violation{RunID: s.ID, Kind: "counter",
				Detail: fmt.Sprintf("%s: in seed (%d) but not recorded by current run", name, s.Counters[name])})
			continue
		}
		if got != s.Counters[name] {
			out = append(out, Violation{RunID: s.ID, Kind: "counter",
				Detail: fmt.Sprintf("%s: %d != seed %d (deterministic counter drift — algorithmic change? regenerate the seed in the same commit if intended)",
					name, got, s.Counters[name])})
		}
	}
	return out
}
