package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable/faultfs"
	"repro/internal/obs"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testClock() func() time.Time {
	return faultfs.NewClock(time.Unix(1_700_000_000, 0).UTC()).Now
}

// Result bytes the scenarios persist; replay must return them exactly.
const (
	result1 = `{"channels":9,"cost":9.5}`
	result4 = `{"channels":2,"cost":3.25}`
)

// scenario is a fixed append sequence: three jobs — one finishing, one
// failing, one left queued (interrupted) — each logged as its
// submission and, when it finished, its terminal result.
func scenario(s *Store) []func() error {
	now := time.Unix(1_700_000_000, 0).UTC()
	return []func() error{
		func() error { return s.AppendJob("j-000001", "wan", now, json.RawMessage(`{"example":"wan"}`), "", "") },
		func() error { return s.AppendResult("j-000001", json.RawMessage(result1), "", false) },
		func() error { return s.AppendJob("j-000002", "bad", now, json.RawMessage(`{"example":"bad"}`), "", "") },
		func() error { return s.AppendResult("j-000002", nil, "infeasible instance", false) },
		func() error {
			return s.AppendJob("j-000003", "mpeg4", now, json.RawMessage(`{"example":"mpeg4"}`), "", "")
		},
	}
}

// crashScenario extends scenario with the folded record fields, as a
// full three-slot table produces them: job 4's admission evicts the
// finished job 1, a crash re-executes job 4 (its result is marked
// restarted), and job 5's admission evicts the failed job 2 and is
// left queued.
func crashScenario(s *Store) []func() error {
	now := time.Unix(1_700_000_000, 0).UTC()
	return append(scenario(s),
		func() error {
			return s.AppendJob("j-000004", "lan", now, json.RawMessage(`{"example":"lan"}`), "", "j-000001")
		},
		func() error { return s.AppendResult("j-000004", json.RawMessage(result4), "", true) },
		func() error {
			return s.AppendJob("j-000005", "wan", now, json.RawMessage(`{"example":"wan"}`), "", "j-000002")
		},
	)
}

// runScenario drives scenario against a store, failing on any error.
func runScenario(t *testing.T, s *Store) {
	t.Helper()
	for i, step := range scenario(s) {
		if err := step(); err != nil {
			t.Fatalf("scenario step %d: %v", i, err)
		}
	}
}

func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 0 || rep.Skipped != 0 {
		t.Fatalf("fresh dir replay = %+v, want empty", rep)
	}
	runScenario(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, rep, err = Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 0 {
		t.Errorf("replay skipped = %d, want 0", rep.Skipped)
	}
	if len(rep.Jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(rep.Jobs))
	}
	j1, j2, j3 := rep.Jobs[0], rep.Jobs[1], rep.Jobs[2]
	if j1.ID != "j-000001" || j1.State != "done" || string(j1.Result) != result1 {
		t.Errorf("job 1 = %+v, want done with its exact result bytes", j1)
	}
	if j2.State != "failed" || j2.Error != "infeasible instance" {
		t.Errorf("job 2 = %+v, want failed", j2)
	}
	if j3.State != "queued" || string(j3.Spec) != `{"example":"mpeg4"}` {
		t.Errorf("job 3 = %+v, want still queued with its spec", j3)
	}
}

// TestEvictRecordDropsJob: a job record's evicts field removes the
// evicted job at the point the admission replays, and a result record
// carries the restarted bit.
func TestEvictRecordDropsJob(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range crashScenario(s) {
		if err := step(); err != nil {
			t.Fatalf("scenario step %d: %v", i, err)
		}
	}
	_ = s.Close()
	_, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 0 || rep.Records != 8 {
		t.Errorf("replay applied %d records and skipped %d, want 8 and 0", rep.Records, rep.Skipped)
	}
	if got := fmt.Sprint(ids(rep.Jobs)); got != "[j-000003 j-000004 j-000005]" {
		t.Fatalf("after evictions, jobs = %s, want [j-000003 j-000004 j-000005]", got)
	}
	if j4 := rep.Jobs[1]; j4.State != "done" || !j4.Restarted || string(j4.Result) != result4 {
		t.Errorf("job 4 = %+v, want done, restarted, with its exact result bytes", j4)
	}
	if j5 := rep.Jobs[2]; j5.State != "queued" || j5.Restarted {
		t.Errorf("job 5 = %+v, want queued and not restarted", j5)
	}
}

func ids(jobs []*Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// TestTornTailSkippedNotFatal covers the crash signature: a final
// record cut mid-bytes, and separately pure garbage, must be skipped
// and counted while every record before them survives.
func TestTornTailSkippedNotFatal(t *testing.T) {
	for name, tail := range map[string]string{
		"truncated": `{"t":"result","id":"j-000003","resu`,
		"garbage":   "\x00\x7fnot json at all",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
			if err != nil {
				t.Fatal(err)
			}
			runScenario(t, s)
			_ = s.Close()
			// No Source configured, so everything still lives in the
			// WAL; append the torn tail right behind the good records.
			f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tail); err != nil {
				t.Fatal(err)
			}
			_ = f.Close()

			reg := obs.NewRegistry()
			_, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock(), Registry: reg})
			if err != nil {
				t.Fatalf("open over torn tail: %v", err)
			}
			if rep.Skipped != 1 {
				t.Errorf("skipped = %d, want 1", rep.Skipped)
			}
			if len(rep.Jobs) != 3 {
				t.Errorf("jobs = %v, want all 3 intact", ids(rep.Jobs))
			}
			if got := reg.Snapshot().CounterMap()["durable/wal/replay_skipped"]; got != 1 {
				t.Errorf("durable/wal/replay_skipped = %d, want 1", got)
			}
		})
	}
}

// TestGarbledMidFileRecord: corruption before good records loses only
// itself — later records still apply.
func TestGarbledMidFileRecord(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0).UTC()
	lines := []string{
		fmt.Sprintf(`{"t":"job","id":"j-000001","time":%q,"workload":"wan","spec":{"example":"wan"}}`, now.Format(time.RFC3339)),
		`{"t":"state","id":"j-0000`, // torn mid-file
		fmt.Sprintf(`{"t":"job","id":"j-000002","time":%q,"workload":"wan","spec":{"example":"wan"}}`, now.Format(time.RFC3339)),
		`{"t":"result","id":"j-000002","time":"2023-11-14T22:13:20Z","result":{"cost":1}}`,
	}
	var data []byte
	for _, l := range lines {
		data = append(data, l...)
		data = append(data, '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || len(rep.Jobs) != 2 {
		t.Fatalf("skipped=%d jobs=%v, want 1 skipped and both jobs", rep.Skipped, ids(rep.Jobs))
	}
	if rep.Jobs[1].State != "done" {
		t.Errorf("job 2 state = %q, want done (record after the garble must apply)", rep.Jobs[1].State)
	}
}

// TestCorruptSnapshotFallsBackToWAL: a garbled snapshot is counted
// and skipped; the WAL alone still reconstructs its records.
func TestCorruptSnapshotFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, s)
	_ = s.Close()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatalf("open over corrupt snapshot: %v", err)
	}
	if rep.SnapshotRestored || rep.Skipped != 1 {
		t.Errorf("replay = %+v, want snapshot skipped and counted", rep)
	}
	if len(rep.Jobs) != 3 {
		t.Errorf("jobs = %v, want all 3 rebuilt from the WAL alone", ids(rep.Jobs))
	}
}

// TestSnapshotCompaction pins the rotation contract: crossing
// SnapshotEvery writes the snapshot, truncates the log, and a reopen
// restores from the snapshot alone.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	table := []Job{{ID: "j-000001", Workload: "wan", State: "done", Result: json.RawMessage(`{"cost":2}`)}}
	reg := obs.NewRegistry()
	s, _, err := Open(dir, Options{
		Logger: testLogger(), Now: testClock(), Registry: reg,
		SnapshotEvery: 3,
		Source:        func() []Job { return table },
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0).UTC()
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("j-%06d", i)
		if err := s.AppendJob(id, "wan", now, json.RawMessage(`{"example":"wan"}`), "", ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().CounterMap()["durable/wal/snapshots"]; got != 1 {
		t.Fatalf("durable/wal/snapshots = %d, want 1 after crossing the threshold", got)
	}
	if data, err := os.ReadFile(filepath.Join(dir, walFile)); err != nil || len(data) != 0 {
		t.Fatalf("WAL after compaction: %d bytes, err %v; want empty", len(data), err)
	}
	s.Crash() // skip Close's own compaction: reopen must see the mid-run snapshot

	_, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotRestored || len(rep.Jobs) != 1 || rep.Jobs[0].ID != "j-000001" {
		t.Fatalf("replay = %+v (%v), want the snapshot table", rep, ids(rep.Jobs))
	}
}

func TestAppendAfterCloseAndCrash(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if err := s.AppendResult("j-000001", nil, "", false); !errors.Is(err, ErrClosed) {
		t.Errorf("append after crash = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close after crash = %v, want nil (idempotent)", err)
	}
}

// TestCrashRecoverySweep is the fault-injection property test: for
// every kill point N in crashScenario's write-op sequence (odd N torn
// — the dying write lands half its bytes), a reopen must succeed,
// skip at most the one torn record, and reconstruct exactly a prefix
// of the scenario — a job replayed as done must carry its exact
// result bytes and restarted bit, one replayed as queued must carry
// its spec so it can be re-queued, and no replay may hold both an
// evicting job and the job it evicted.
func TestCrashRecoverySweep(t *testing.T) {
	// Measure the op budget with no fault armed.
	probe := faultfs.NewFaulty(nil)
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Logger: testLogger(), Now: testClock(), FS: probe})
	if err != nil {
		t.Fatal(err)
	}
	sRun(s)
	totalOps := probe.Ops()
	if totalOps < 10 {
		t.Fatalf("scenario used only %d write ops; sweep would be vacuous", totalOps)
	}

	for n := int64(1); n <= totalOps; n++ {
		t.Run(fmt.Sprintf("kill@%d", n), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.NewFaulty(nil)
			ffs.FailFrom(n, n%2 == 1)
			s, _, err := Open(dir, Options{Logger: testLogger(), Now: testClock(), FS: ffs})
			if err != nil {
				// Killed during Open's own setup: nothing persisted,
				// nothing to recover. Fine.
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("open failed with a non-injected error: %v", err)
				}
				return
			}
			// Drive the scenario ignoring errors, as a crashing
			// process effectively does, then drop the store.
			sRun(s)
			s.Crash()

			_, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
			if err != nil {
				t.Fatalf("recovery open failed: %v", err)
			}
			if rep.Skipped > 1 {
				t.Errorf("skipped = %d, want <= 1 (only the torn tail)", rep.Skipped)
			}
			held := make(map[string]bool)
			for _, j := range rep.Jobs {
				held[j.ID] = true
				switch j.ID {
				case "j-000001":
					if j.State == "done" && (string(j.Result) != result1 || j.Restarted) {
						t.Errorf("job 1 done with result %q restarted %v, want exact bytes, not restarted", j.Result, j.Restarted)
					}
				case "j-000002":
					if j.State == "failed" && j.Error != "infeasible instance" {
						t.Errorf("job 2 failed with error %q", j.Error)
					}
				case "j-000004":
					if j.State == "done" && (string(j.Result) != result4 || !j.Restarted) {
						t.Errorf("job 4 done with result %q restarted %v, want exact bytes, restarted", j.Result, j.Restarted)
					}
				}
				if j.State == "queued" && len(j.Spec) == 0 {
					t.Errorf("job %s interrupted without a spec; cannot re-queue", j.ID)
				}
			}
			for evicting, evicted := range map[string]string{"j-000004": "j-000001", "j-000005": "j-000002"} {
				if held[evicting] && held[evicted] {
					t.Errorf("replay holds both %s and %s, which it evicted", evicting, evicted)
				}
			}
		})
	}
}

// sRun drives crashScenario without a testing.T, swallowing errors —
// the crashing-process shape used by the sweep.
func sRun(s *Store) {
	for _, step := range crashScenario(s) {
		_ = step()
	}
	_ = s.Close()
}
