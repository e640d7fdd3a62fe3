package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOldRecordTypesSkipped: the state and evict records of the older
// four-type log have no reader; they replay as skipped and counted,
// and the job and result records around them still apply.
func TestOldRecordTypesSkipped(t *testing.T) {
	dir := t.TempDir()
	wal := `{"t":"job","id":"j-000001","time":"2023-11-14T22:13:20Z","workload":"wan","spec":{"example":"wan"}}
{"t":"state","id":"j-000001","time":"2023-11-14T22:13:20Z","state":"running"}
{"t":"result","id":"j-000001","time":"2023-11-14T22:13:20Z","result":{"cost":1}}
{"t":"evict","id":"j-000001","time":"2023-11-14T22:13:20Z"}
`
	if err := os.WriteFile(filepath.Join(dir, walFile), []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Open(dir, Options{Logger: testLogger(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.Skipped != 2 {
		t.Errorf("replay applied %d and skipped %d records, want 2 and 2", rep.Records, rep.Skipped)
	}
	if len(rep.Jobs) != 1 || rep.Jobs[0].State != "done" {
		t.Errorf("jobs = %v, want j-000001 done", ids(rep.Jobs))
	}
}

// FuzzReplay opens a data directory holding arbitrary WAL bytes, plus
// a snapshot when the second input is non-empty. Open must not panic
// or fail on a readable directory; without a snapshot every non-blank
// WAL line is either applied or skipped; and replayed job IDs are
// non-empty and unique. The seed corpus in testdata/fuzz/FuzzReplay
// holds a full crash scenario, torn and garbled lines, the older
// state/evict records, batch records, and intact, damaged and corrupt
// snapshots.
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
