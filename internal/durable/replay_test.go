package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOldRecordTypesSkipped: what older data directories hold and
// nothing reads — state, evict and batch records in the WAL, a batches
// array in the snapshot — is skipped and counted, or ignored in the
// snapshot, and every job around it still restores with its state.
func TestOldRecordTypesSkipped(t *testing.T) {
	dir := t.TempDir()
	snap := `{"v":1,"jobs":[{"id":"j-000001","workload":"wan","created":"2023-11-14T22:13:20Z","state":"done","spec":{"example":"wan"},"result":{"cost":1}}],` +
		`"batches":[{"id":"b-000001","workload":"mix","created":"2023-11-14T22:13:20Z","members":[{"name":"a","jobId":"j-000001","tier":"accepted"}]}]}`
	wal := `{"t":"job","id":"j-000002","time":"2023-11-14T22:13:20Z","workload":"wan","spec":{"example":"wan"}}
{"t":"state","id":"j-000002","time":"2023-11-14T22:13:20Z","state":"running"}
{"t":"job","id":"j-000003","time":"2023-11-14T22:13:20Z","workload":"lan","spec":{"example":"lan"}}
{"t":"batch","id":"b-000002","time":"2023-11-14T22:13:20Z","workload":"mix","members":[{"name":"a","jobId":"j-000002","tier":"accepted"},{"name":"b","jobId":"j-000003","tier":"accepted"},{"name":"c","tier":"shed"}]}
{"t":"result","id":"j-000002","time":"2023-11-14T22:13:20Z","result":{"cost":2}}
{"t":"evict","id":"j-000002","time":"2023-11-14T22:13:20Z"}
`
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotRestored {
		t.Error("a snapshot holding a batches array was not restored")
	}
	if rep.Records != 3 || rep.Skipped != 3 {
		t.Errorf("replay applied %d and skipped %d records, want 3 and 3 (state, batch and evict skipped)", rep.Records, rep.Skipped)
	}
	want := map[string]string{"j-000001": "done", "j-000002": "done", "j-000003": "queued"}
	if len(rep.Jobs) != len(want) {
		t.Fatalf("jobs = %v, want j-000001, j-000002 and j-000003", ids(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if want[j.ID] != j.State {
			t.Errorf("job %s is %q, want %q", j.ID, j.State, want[j.ID])
		}
	}
}

// FuzzReplay opens a data directory holding arbitrary WAL bytes, plus
// a snapshot when the second input is non-empty. Open must not panic
// or fail on a readable directory; without a snapshot every non-blank
// WAL line is either applied or skipped; and replayed job IDs are
// non-empty and unique. The seed corpus in testdata/fuzz/FuzzReplay
// holds a full crash scenario, torn and garbled lines, the record
// kinds older logs hold (state, evict and batch records), and intact,
// damaged and corrupt snapshots.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, wal, snapshot []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(snapshot) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer s.Close()
		if len(snapshot) == 0 {
			lines := 0
			for _, line := range bytes.Split(wal, []byte{'\n'}) {
				if len(bytes.TrimSpace(line)) > 0 {
					lines++
				}
			}
			if rep.Records+rep.Skipped != lines {
				t.Errorf("records %d + skipped %d != %d non-blank WAL lines", rep.Records, rep.Skipped, lines)
			}
		}
		seen := make(map[string]bool, len(rep.Jobs))
		for _, j := range rep.Jobs {
			if j.ID == "" || seen[j.ID] {
				t.Errorf("replayed job ID %q is empty or repeated in %v", j.ID, ids(rep.Jobs))
			}
			seen[j.ID] = true
		}
	})
}
