package benchfmt

import (
	"path/filepath"
	"testing"
)

func seedAndCopy() (*Baseline, *Baseline) {
	mk := func() *Baseline {
		return &Baseline{
			GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 4, Short: true,
			Runs: []Run{
				{ID: "E1", Name: "table1", Title: "Table 1", Passed: true, ElapsedMs: 0.2},
				{ID: "E5", Name: "fig4", Title: "Figure 4", Passed: true, ElapsedMs: 100,
					Counters: map[string]int64{
						"merging/sets_tested": 57,
						"ucp/nodes":           12,
					}},
			},
		}
	}
	return mk(), mk()
}

func TestDiffIdenticalPasses(t *testing.T) {
	seed, cur := seedAndCopy()
	if v := Diff(seed, cur, DiffOptions{}); len(v) != 0 {
		t.Fatalf("identical baselines must pass, got %v", v)
	}
}

func TestDiffFasterRunPasses(t *testing.T) {
	seed, cur := seedAndCopy()
	cur.Runs[1].ElapsedMs = 1 // 100x speedup is never a violation
	if v := Diff(seed, cur, DiffOptions{}); len(v) != 0 {
		t.Fatalf("faster run must pass, got %v", v)
	}
}

func TestDiffTimeRegressionFails(t *testing.T) {
	seed, cur := seedAndCopy()
	// Limit for E5 is 100*1.30 + 50 = 180ms.
	cur.Runs[1].ElapsedMs = 181
	v := Diff(seed, cur, DiffOptions{})
	if len(v) != 1 || v[0].Kind != "time" || v[0].RunID != "E5" {
		t.Fatalf("want one E5 time violation, got %v", v)
	}
	cur.Runs[1].ElapsedMs = 179
	if v := Diff(seed, cur, DiffOptions{}); len(v) != 0 {
		t.Fatalf("run inside tolerance must pass, got %v", v)
	}
}

func TestDiffAbsSlackShieldsTinyRuns(t *testing.T) {
	seed, cur := seedAndCopy()
	// E1's seed time is 0.2ms; a 10ms flake is inside the 50ms slack.
	cur.Runs[0].ElapsedMs = 10
	if v := Diff(seed, cur, DiffOptions{}); len(v) != 0 {
		t.Fatalf("sub-slack jitter must pass, got %v", v)
	}
	// With the grace disabled the same jitter fails.
	v := Diff(seed, cur, DiffOptions{AbsSlackMs: -1})
	if len(v) != 1 || v[0].Kind != "time" || v[0].RunID != "E1" {
		t.Fatalf("want one E1 time violation with slack off, got %v", v)
	}
}

func TestDiffCounterDriftFails(t *testing.T) {
	seed, cur := seedAndCopy()
	cur.Runs[1].Counters["ucp/nodes"] = 13
	delete(cur.Runs[1].Counters, "merging/sets_tested")
	v := Diff(seed, cur, DiffOptions{})
	if len(v) != 2 {
		t.Fatalf("want 2 counter violations, got %v", v)
	}
	// Violations are name-sorted: merging/... before ucp/....
	if v[0].Kind != "counter" || v[1].Kind != "counter" ||
		v[0].Detail[:len("merging")] != "merging" || v[1].Detail[:len("ucp")] != "ucp" {
		t.Fatalf("violations wrong or unsorted: %v", v)
	}
}

func TestDiffMissingAndFailedRuns(t *testing.T) {
	seed, cur := seedAndCopy()
	cur.Runs = cur.Runs[:1]
	cur.Runs[0].Passed = false
	v := Diff(seed, cur, DiffOptions{})
	if len(v) != 2 || v[0].Kind != "failed" || v[0].RunID != "E1" ||
		v[1].Kind != "missing" || v[1].RunID != "E5" {
		t.Fatalf("want E1 failed + E5 missing, got %v", v)
	}
}

func TestDiffOldSeedWithoutCountersIsVacuous(t *testing.T) {
	seed, cur := seedAndCopy()
	seed.Runs[1].Counters = nil
	cur.Runs[1].Counters["ucp/nodes"] = 999
	if v := Diff(seed, cur, DiffOptions{}); len(v) != 0 {
		t.Fatalf("counter-less seed must not gate counters, got %v", v)
	}
	// And a current run without metrics compares vacuously too.
	seed2, cur2 := seedAndCopy()
	cur2.Runs[1].Counters = nil
	if v := Diff(seed2, cur2, DiffOptions{}); len(v) != 0 {
		t.Fatalf("counter-less current run must not gate counters, got %v", v)
	}
}

func TestLoadWriteRoundTrip(t *testing.T) {
	seed, _ := seedAndCopy()
	path := filepath.Join(t.TempDir(), "b.json")
	if err := seed.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := Diff(seed, got, DiffOptions{}); len(v) != 0 {
		t.Fatalf("round-trip changed the baseline: %v", v)
	}
	if got.Runs[1].Counters["merging/sets_tested"] != 57 {
		t.Fatalf("counters lost in round trip: %+v", got.Runs[1])
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("Load of a missing file must error")
	}
}
