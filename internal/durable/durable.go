// Package durable persists the cdcsd job table across crashes: an
// append-only JSON-lines write-ahead log plus a periodic snapshot,
// replayed at startup into the last durable view of every job. The
// contract is crash-shaped at both ends:
//
//   - Writing: every record is fsynced before its append returns, the
//     log is compacted into an atomically-renamed snapshot every
//     Options.SnapshotEvery records, and any write error degrades the
//     store to lossy instead of taking the daemon down.
//   - Reading: replay tolerates the wreckage a kill -9 leaves behind.
//     A truncated or garbled record — typically the torn tail the
//     dying write left — is skipped and counted, never fatal, and a
//     corrupt snapshot falls back to the log alone.
//
// Synthesis is a pure function of the submitted spec, so re-running
// an interrupted job is idempotent and a job needs only two records:
// a job record (spec + workload, implying queued; Evicts names the
// finished job its admission dropped, so eviction and admission
// persist atomically) and a result record (terminal: done when Error
// is empty, failed otherwise; Restarted marks a re-execution after a
// crash). Replay folds the stream into per-job final states; the
// serving layer turns those into restored finished jobs and re-queued
// interrupted ones. Any other record type — the state, evict and
// batch records of older logs — is skipped and counted, so an older
// log still restores every job it names.
//
// Filesystem and clock are injectable through faultfs, which is how
// the crash-recovery property tests sweep every kill point.
package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/durable/faultfs"
	"repro/internal/obs"
)

// Record type tags (the "t" field of a WAL line).
const (
	RecordJob    = "job"
	RecordResult = "result"
)

// ErrClosed is returned by appends after Close (or the Crash test
// hook); the serving layer treats it as "persistence is over", not as
// a serving failure.
var ErrClosed = errors.New("durable: store is closed")

// WAL and snapshot file names inside the data directory.
const (
	walFile      = "wal.log"
	snapshotFile = "snapshot.json"
	snapshotTmp  = "snapshot.json.tmp"
)

// Record is one WAL line. Which fields are set depends on T; every
// record carries the job ID and a timestamp.
type Record struct {
	T    string    `json:"t"`
	ID   string    `json:"id"`
	Time time.Time `json:"time"`
	// Job records: the submission. Trace is the job root span's
	// serialized traceparent, so a restored job keeps its distributed
	// trace correlation across the crash. Evicts is the finished job
	// this admission dropped to make room, if any: replay removes it
	// when it applies the record.
	Workload string          `json:"workload,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	Trace    string          `json:"trace,omitempty"`
	Evicts   string          `json:"evicts,omitempty"`
	// Result records: the terminal outcome — done when Error is
	// empty, failed otherwise. Restarted marks the outcome of a
	// re-execution after a crash.
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	Restarted bool            `json:"restarted,omitempty"`
}

// Job is the replayed (and snapshotted) durable view of one job.
type Job struct {
	ID        string          `json:"id"`
	Workload  string          `json:"workload"`
	Created   time.Time       `json:"created"`
	State     string          `json:"state"`
	Restarted bool            `json:"restarted,omitempty"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	// Trace is the job root span's traceparent, replayed so restored
	// jobs keep their trace IDs.
	Trace string `json:"trace,omitempty"`
}

// Replay is what Open recovered from the data directory.
type Replay struct {
	// Jobs are the recovered jobs, oldest first (snapshot order, then
	// first WAL appearance).
	Jobs []*Job
	// Records is how many WAL records were applied.
	Records int
	// Skipped counts truncated or garbled records that replay dropped
	// — the durable/wal/replay_skipped instrument.
	Skipped int
	// SnapshotRestored reports whether a snapshot file was loaded.
	SnapshotRestored bool
}

// Options tunes the store. The zero value compacts every 1024
// records and uses the real filesystem and clock.
type Options struct {
	// FS is the filesystem seam; nil means the real OS.
	FS faultfs.FS
	// Now is the record-timestamp clock; nil means time.Now.
	Now func() time.Time
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// records. <=0 means 1024.
	SnapshotEvery int
	// Source supplies the current job table for compaction; nil
	// disables automatic and close-time snapshots.
	Source func() []Job
	// Registry receives the durable/wal/* instruments; nil disables.
	Registry *obs.Registry
	// Logger receives structured warnings; nil means slog.Default.
	Logger *slog.Logger
}

// Store is the open write-ahead log. Safe for concurrent appends.
type Store struct {
	dir  string
	fsys faultfs.FS
	now  func() time.Time
	log  *slog.Logger

	records, fsyncs, skipped, snapshots *obs.CounterHandle

	// mu serializes appends and compaction. It is not reentrant, and
	// compaction (which runs under it) calls the injected source hook
	// — so no internal path may re-acquire it:
	//
	//cdcsvet:lockorder Store.mu -> Store.mu
	mu        sync.Mutex
	w         faultfs.File
	sinceSnap int // records appended since the last snapshot
	closed    bool
	snapEvery int
	source    func() []Job
}

// Open replays dir's snapshot and WAL — tolerating a torn tail — and
// returns the store ready for appends plus what it recovered. Replay
// problems are counted and logged, never fatal; only the inability to
// create the directory or open the log for appending fails Open.
func Open(dir string, opts Options) (*Store, *Replay, error) {
	if opts.FS == nil {
		opts.FS = faultfs.OS()
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 1024
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: create data dir: %w", err)
	}
	s := &Store{
		dir:       dir,
		fsys:      opts.FS,
		now:       opts.Now,
		log:       opts.Logger,
		records:   opts.Registry.Counter("durable/wal/records"),
		fsyncs:    opts.Registry.Counter("durable/wal/fsyncs"),
		skipped:   opts.Registry.Counter("durable/wal/replay_skipped"),
		snapshots: opts.Registry.Counter("durable/wal/snapshots"),
		snapEvery: opts.SnapshotEvery,
		source:    opts.Source,
	}
	rep := s.replay()
	s.skipped.Add(int64(rep.Skipped))
	w, err := opts.FS.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open WAL: %w", err)
	}
	s.w = w
	// The replayed backlog counts toward the next compaction, so a
	// daemon that crash-loops before reaching SnapshotEvery fresh
	// records still compacts instead of growing the log forever.
	s.sinceSnap = rep.Records
	return s, rep, nil
}

// AppendJob records a submission (the job enters queued). trace is the
// job's serialized traceparent ("" when untraced); evicts is the
// finished job the admission dropped to make room ("" when none).
func (s *Store) AppendJob(id, workload string, created time.Time, spec json.RawMessage, trace, evicts string) error {
	return s.append(&Record{T: RecordJob, ID: id, Time: created, Workload: workload, Spec: spec, Trace: trace, Evicts: evicts})
}

// AppendResult records the terminal outcome: done when errMsg is
// empty, failed otherwise. restarted marks the outcome of a
// re-execution after a crash.
func (s *Store) AppendResult(id string, result json.RawMessage, errMsg string, restarted bool) error {
	return s.append(&Record{T: RecordResult, ID: id, Time: s.now(), Result: result, Error: errMsg, Restarted: restarted})
}

func (s *Store) append(rec *Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("durable: encode record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, err := s.w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("durable: append record: %w", err)
	}
	s.records.Add(1)
	s.sinceSnap++
	if err := s.w.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	s.fsyncs.Add(1)
	if s.source != nil && s.sinceSnap >= s.snapEvery {
		if err := s.compactLocked(); err != nil {
			// Compaction failure is not data loss — the WAL still has
			// everything — so log and keep appending to the old log.
			s.log.Warn("wal compaction failed", "error", err.Error())
			s.sinceSnap = 0 // back off until the next threshold
		}
	}
	return nil
}

// compactLocked snapshots the source's table and writes it atomically
// (tmp file, fsync, rename), then truncates the log: crash before the
// rename leaves the old snapshot + full WAL, crash after it leaves the
// new snapshot + stale-but-reapplyable WAL records (replay is
// idempotent per job). Caller checks s.source != nil.
func (s *Store) compactLocked() error {
	data, err := json.Marshal(struct {
		V    int   `json:"v"`
		Jobs []Job `json:"jobs"`
	}{V: 1, Jobs: s.source()})
	if err != nil {
		return fmt.Errorf("encode snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotTmp)
	f, err := s.fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("create snapshot tmp: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		_ = f.Close()
		return fmt.Errorf("write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close snapshot: %w", err)
	}
	if err := s.fsys.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
		return fmt.Errorf("publish snapshot: %w", err)
	}
	// The snapshot is durable; start a fresh log.
	_ = s.w.Close()
	w, err := s.fsys.OpenFile(filepath.Join(s.dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		// The old handle is gone: further appends cannot persist.
		s.closed = true
		return fmt.Errorf("reset WAL: %w", err)
	}
	s.w = w
	s.sinceSnap = 0
	s.snapshots.Add(1)
	return nil
}

// Close compacts one final time (when a Source is configured — a
// clean shutdown restarts from the snapshot alone) and closes the log.
// Every record is already synced. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.source != nil {
		err = s.compactLocked()
	}
	if !s.closed { // compactLocked may have disabled the store
		_ = s.w.Close()
		s.closed = true
	}
	return err
}

// Crash is the kill -9 test hook: drop the log on the floor — no
// final sync, no compaction — and refuse further appends with
// ErrClosed. What recovery sees afterward is exactly what had been
// fsynced (plus whatever the OS happened to flush).
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	_ = s.w.Close()
	s.closed = true
}
