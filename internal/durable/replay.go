package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"path/filepath"
)

// replay folds the snapshot and WAL into per-job final states. It
// never fails: a missing file is an empty store, a corrupt snapshot
// is counted and skipped (the WAL still replays), and a truncated or
// garbled WAL record — the torn tail a crash leaves — is counted and
// skipped without abandoning the records before it.
func (s *Store) replay() *Replay {
	rep := &Replay{}
	byID := make(map[string]*Job)

	if data, err := s.fsys.ReadFile(filepath.Join(s.dir, snapshotFile)); err == nil {
		// An older snapshot's batches array is an unknown field here
		// and is ignored; its jobs are listed under jobs.
		var snap struct {
			V    int   `json:"v"`
			Jobs []Job `json:"jobs"`
		}
		if jerr := json.Unmarshal(data, &snap); jerr != nil {
			rep.Skipped++
			s.log.Warn("corrupt snapshot skipped; replaying WAL alone",
				"path", snapshotFile, "error", jerr.Error())
		} else {
			rep.SnapshotRestored = true
			for i := range snap.Jobs {
				j := snap.Jobs[i]
				if j.ID == "" || byID[j.ID] != nil {
					// Compaction never writes a nameless or repeated
					// job; a damaged snapshot can.
					rep.Skipped++
					continue
				}
				byID[j.ID] = &j
				rep.Jobs = append(rep.Jobs, &j)
			}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		rep.Skipped++
		s.log.Warn("unreadable snapshot skipped", "error", err.Error())
	}

	data, err := s.fsys.ReadFile(filepath.Join(s.dir, walFile))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			rep.Skipped++
			s.log.Warn("unreadable WAL skipped", "error", err.Error())
		}
		return rep
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn tail or mid-file garbage: count and move on. A
			// record the crash cut short can only cost itself.
			rep.Skipped++
			continue
		}
		if !s.apply(rep, byID, &rec) {
			rep.Skipped++
			continue
		}
		rep.Records++
	}
	return rep
}

// apply folds one record into the replay state; false means the
// record is malformed, of a kind no longer written (an older log's
// state, evict or batch record), or references a job replay never saw
// (its job record was itself lost), and should be counted as skipped.
func (s *Store) apply(rep *Replay, byID map[string]*Job, rec *Record) bool {
	if rec.ID == "" {
		return false
	}
	switch rec.T {
	case RecordJob:
		// The job this admission evicted may already be absent: a
		// snapshot taken after the eviction no longer lists it.
		if j := byID[rec.Evicts]; j != nil {
			delete(byID, rec.Evicts)
			for i, rj := range rep.Jobs {
				if rj == j {
					rep.Jobs = append(rep.Jobs[:i], rep.Jobs[i+1:]...)
					break
				}
			}
		}
		if _, dup := byID[rec.ID]; dup {
			// Snapshot + stale WAL overlap after a crash between
			// snapshot publish and log reset: refresh in place.
			j := byID[rec.ID]
			j.Workload = rec.Workload
			j.Spec = rec.Spec
			j.Created = rec.Time
			j.Trace = rec.Trace
			return true
		}
		j := &Job{
			ID:       rec.ID,
			Workload: rec.Workload,
			Created:  rec.Time,
			State:    "queued",
			Spec:     rec.Spec,
			Trace:    rec.Trace,
		}
		byID[rec.ID] = j
		rep.Jobs = append(rep.Jobs, j)
		return true
	case RecordResult:
		j, ok := byID[rec.ID]
		if !ok {
			return false
		}
		j.Result = rec.Result
		j.Error = rec.Error
		j.Restarted = rec.Restarted
		if rec.Error == "" {
			j.State = "done"
		} else {
			j.State = "failed"
		}
		return true
	default:
		return false
	}
}
