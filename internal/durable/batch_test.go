package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testMembers() []BatchMember {
	return []BatchMember{
		{Name: "a", JobID: "j-000001", Tier: "accepted"},
		{Name: "b", JobID: "j-000002", Tier: "degraded"},
		{Name: "c", Tier: "shed"},
		{Name: "d", Error: "unknown example"},
	}
}

func TestBatchReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0).UTC()
	runScenario(t, s)
	if err := s.AppendBatch("b-000001", "mixed", now, testMembers()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch("b-000002", "wan", now, testMembers()[:1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 0 {
		t.Errorf("replay skipped = %d, want 0", rep.Skipped)
	}
	if len(rep.Jobs) != 3 {
		t.Errorf("batch records must not disturb job replay: %d jobs, want 3", len(rep.Jobs))
	}
	if len(rep.Batches) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(rep.Batches))
	}
	b1, b2 := rep.Batches[0], rep.Batches[1]
	if b1.ID != "b-000001" || b1.Workload != "mixed" || !b1.Created.Equal(now) {
		t.Errorf("batch 1 = %+v, want b-000001/mixed at %v", b1, now)
	}
	if len(b1.Members) != 4 {
		t.Fatalf("batch 1 has %d members, want 4", len(b1.Members))
	}
	for i, want := range testMembers() {
		if b1.Members[i] != want {
			t.Errorf("batch 1 member %d = %+v, want %+v", i, b1.Members[i], want)
		}
	}
	if b2.ID != "b-000002" || len(b2.Members) != 1 {
		t.Errorf("batch 2 = %+v, want b-000002 with one member", b2)
	}
}

func TestBatchSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0).UTC()
	table := []Job{{ID: "j-000001", Workload: "wan", State: "done", Result: json.RawMessage(`{"cost":2}`)}}
	batches := []Batch{{ID: "b-000001", Workload: "mixed", Created: now, Members: testMembers()}}
	s, _, err := Open(dir, Options{
		Logger: testLogger(), Now: testClock(),
		SnapshotEvery: 3,
		Source:        func() ([]Job, []Batch) { return table, batches },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("j-%06d", i)
		if err := s.AppendJob(id, "wan", now, json.RawMessage(`{"example":"wan"}`), "", ""); err != nil {
			t.Fatal(err)
		}
	}
	if data, err := os.ReadFile(filepath.Join(dir, walFile)); err != nil || len(data) != 0 {
		t.Fatalf("WAL after compaction: %d bytes, err %v; want empty", len(data), err)
	}
	s.Crash() // reopen must restore batches from the snapshot alone

	_, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotRestored {
		t.Fatal("replay did not restore from snapshot")
	}
	if len(rep.Batches) != 1 || rep.Batches[0].ID != "b-000001" || len(rep.Batches[0].Members) != 4 {
		t.Fatalf("batches from snapshot = %+v, want the compacted envelope", rep.Batches)
	}
}

// TestBatchSnapshotWALOverlap pins the crash window between snapshot
// publish and WAL reset: a batch present in both must replay once,
// with the WAL copy refreshing the snapshot copy in place.
func TestBatchSnapshotWALOverlap(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0).UTC()
	snap := struct {
		V       int     `json:"v"`
		Jobs    []Job   `json:"jobs"`
		Batches []Batch `json:"batches,omitempty"`
	}{V: 1, Batches: []Batch{{ID: "b-000001", Workload: "stale", Created: now, Members: testMembers()[:1]}}}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(&Record{T: RecordBatch, ID: "b-000001", Time: now, Workload: "mixed", Members: testMembers()})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), append(rec, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	_, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 0 {
		t.Errorf("replay skipped = %d, want 0", rep.Skipped)
	}
	if len(rep.Batches) != 1 {
		t.Fatalf("replayed %d batches, want the overlap folded into 1", len(rep.Batches))
	}
	b := rep.Batches[0]
	if b.Workload != "mixed" || len(b.Members) != 4 {
		t.Errorf("overlap batch = %+v, want the WAL copy's fields", b)
	}
}
