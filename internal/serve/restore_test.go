package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/durable/faultfs"
	"repro/internal/obs"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestCrashRecovery is the end-to-end durability property at the serve
// layer: run a daemon with a data dir, let one job finish and kill the
// store while a second is mid-run, garble the WAL tail, then bring up
// a second daemon on the same directory. The finished job must come
// back with a byte-identical result and a clean synthetic SSE stream;
// the interrupted job must be re-queued, marked restarted, and re-run
// to completion; the torn tail must be skipped and counted.
func TestCrashRecovery(t *testing.T) {
	const body = `{"example":"wan","options":{"workers":1}}`
	dir := t.TempDir()

	// Park every job that starts while parking is enabled; the first
	// job runs unhindered so it can finish before the crash.
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	started := make(chan string, 8)
	var hookCalls int32
	setTestJobStartHook(func(j *Job) {
		if atomic.AddInt32(&hookCalls, 1) == 1 {
			return
		}
		started <- j.ID
		<-release
	})
	defer setTestJobStartHook(nil)

	srv1, err := New(Config{MaxConcurrent: 1, DataDir: dir, Logger: discardLogger()})
	if err != nil {
		t.Fatalf("first daemon: %v", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	j1, code := submit(t, ts1, body)
	if code != http.StatusAccepted {
		t.Fatalf("job 1 status = %d", code)
	}
	fin1 := waitJob(t, ts1, j1.ID)
	if fin1.State != StateDone {
		t.Fatalf("job 1 state = %q, want done", fin1.State)
	}
	result1 := rawResult(t, ts1.URL, j1.ID)

	j2, code := submit(t, ts1, body)
	if code != http.StatusAccepted {
		t.Fatalf("job 2 status = %d", code)
	}
	if id := <-started; id != j2.ID {
		t.Fatalf("running job is %s, want %s", id, j2.ID)
	}

	// kill -9 the persistence mid-run: everything after this instant is
	// lost, so job 2's completion below never reaches the WAL.
	srv1.store.Crash()
	releaseAll()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Drain(ctx); err != nil {
		t.Fatalf("drain first daemon: %v", err)
	}
	ts1.Close()

	// The torn tail a real crash leaves behind.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"result","id":"j-0000`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	// Second daemon, same directory. Jobs must re-run unparked.
	setTestJobStartHook(nil)
	srv2, ts2 := newTestServer(t, Config{MaxConcurrent: 1, DataDir: dir})

	if got := srv2.Registry().Snapshot().CounterMap()["durable/wal/replay_skipped"]; got != 1 {
		t.Errorf("durable/wal/replay_skipped = %d, want 1 (the torn tail)", got)
	}

	// Finished job: restored, byte-identical result, not marked
	// restarted (it never re-ran).
	rj1, code := getJobStatus(t, ts2.URL, j1.ID)
	if code != http.StatusOK || rj1.State != StateDone {
		t.Fatalf("restored job 1 = %+v (status %d), want done", rj1, code)
	}
	if rj1.Restarted {
		t.Error("restored finished job must not be marked restarted")
	}
	if got := rawResult(t, ts2.URL, j1.ID); string(got) != string(result1) {
		t.Errorf("restored result differs from the original:\n  before: %s\n  after:  %s", result1, got)
	}

	// Interrupted job: re-queued, marked restarted, re-runs to done.
	rj2 := waitJob(t, ts2, j2.ID)
	if rj2.State != StateDone {
		t.Fatalf("re-queued job 2 state = %q (error %q), want done", rj2.State, rj2.Error)
	}
	if !rj2.Restarted {
		t.Error("re-queued job must report restarted: true")
	}

	// SSE replay of the restored finished job: a synthetic but
	// contiguous, cleanly-terminated stream.
	checkRestoredStream(t, ts2, j1.ID)
	// SSE replay of the re-run job: the full real stream.
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + j2.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	checkEventStream(t, readSSE(t, resp.Body))
	resp.Body.Close()
}

// checkRestoredStream asserts the synthetic stream of a restored
// finished job: contiguous from seq 1, run_start first, run_end last,
// and the stream terminates on its own (readSSE returns).
func checkRestoredStream(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) < 2 {
		t.Fatalf("restored stream has %d events, want at least run_start + run_end", len(events))
	}
	for i, e := range events {
		if want := int64(i + 1); e.id != want || e.ev.Seq != want {
			t.Fatalf("restored stream event %d: id=%d seq=%d, want both %d", i, e.id, e.ev.Seq, want)
		}
	}
	if events[0].ev.Type != obs.EventRunStart {
		t.Errorf("restored stream starts with %q, want run_start", events[0].ev.Type)
	}
	if last := events[len(events)-1].ev.Type; last != obs.EventRunEnd {
		t.Errorf("restored stream ends with %q, want run_end", last)
	}
}

// rawResult fetches a job and returns its "result" JSON verbatim —
// the byte-identity probe.
func rawResult(t *testing.T, url, id string) json.RawMessage {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if len(env.Result) == 0 {
		t.Fatalf("job %s has no result", id)
	}
	return env.Result
}

// TestRestoreRespectsRetention: more finished jobs in the WAL than
// MaxJobs must restore to exactly MaxJobs, dropping the oldest.
func TestRestoreRespectsRetention(t *testing.T) {
	const body = `{"example":"wan","options":{"workers":1}}`
	dir := t.TempDir()

	srv1, err := New(Config{MaxConcurrent: 1, MaxJobs: 8, DataDir: dir, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	var ids []string
	for i := 0; i < 3; i++ {
		j, code := submit(t, ts1, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", i, code)
		}
		waitJob(t, ts1, j.ID)
		ids = append(ids, j.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv1.Drain(ctx)
	ts1.Close()

	// A tighter retention on restart keeps only the newest finished.
	_, ts2 := newTestServer(t, Config{MaxConcurrent: 1, MaxJobs: 1, DataDir: dir})
	if _, code := getJobStatus(t, ts2.URL, ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest job survived a MaxJobs=1 restore (status %d), want 404", code)
	}
	if got, code := getJobStatus(t, ts2.URL, ids[2]); code != http.StatusOK || got.State != StateDone {
		t.Errorf("newest job = %+v (status %d), want done", got, code)
	}

	// New submissions must not collide with replayed IDs.
	j, code := submit(t, ts2, body)
	if code != http.StatusAccepted {
		t.Fatalf("post-restore submit status = %d", code)
	}
	for _, old := range ids {
		if j.ID == old {
			t.Fatalf("post-restore job reused replayed ID %s", j.ID)
		}
	}
	waitJob(t, ts2, j.ID)
}

// TestDrainBeforeStartRestoresQueued: a job a drain aborts before it
// wins a slot is failed in memory but stays queued durably — in the
// WAL and in the drain's close-time snapshot — so the next start
// re-runs it instead of restoring a shutdown race as a permanent
// failure. A job whose spec cannot be rebuilt on restart stays failed
// across the next snapshot.
func TestDrainBeforeStartRestoresQueued(t *testing.T) {
	const body = `{"example":"wan","options":{"workers":1}}`
	dir := t.TempDir()

	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	started := make(chan string, 8)
	setTestJobStartHook(func(j *Job) {
		started <- j.ID
		<-release
	})
	defer setTestJobStartHook(nil)

	srv1, err := New(Config{MaxConcurrent: 1, DataDir: dir, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	a, _ := submit(t, ts1, body)
	if id := <-started; id != a.ID {
		t.Fatalf("running job is %s, want %s", id, a.ID)
	}
	b, code := submit(t, ts1, body)
	if code != http.StatusAccepted {
		t.Fatalf("job b status = %d", code)
	}

	// Drain while a holds the only slot: b aborts without starting.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		drainServer(t, srv1)
	}()
	if got := waitJob(t, ts1, b.ID); got.State != StateFailed {
		t.Fatalf("job b after drain = %q, want failed in memory", got.State)
	}
	releaseAll()
	<-drained
	ts1.Close()

	// A job whose spec no longer rebuilds, as if written by an older
	// daemon: restore must fail it, durably.
	bad := `{"t":"job","id":"j-000009","time":"2023-11-14T22:13:20Z","workload":"gone","spec":{"example":"gone"}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}

	setTestJobStartHook(nil)
	srv2, err := New(Config{MaxConcurrent: 1, DataDir: dir, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	if rb := waitJob(t, ts2, b.ID); rb.State != StateDone || !rb.Restarted {
		t.Fatalf("restored job b = state %q error %q restarted %v, want re-run to done and restarted",
			rb.State, rb.Error, rb.Restarted)
	}
	drainServer(t, srv2)
	ts2.Close()

	_, ts3 := newTestServer(t, Config{MaxConcurrent: 1, DataDir: dir})
	if rb, _ := getJobStatus(t, ts3.URL, b.ID); rb.State != StateDone || !rb.Restarted {
		t.Errorf("job b after a second restart = %+v, want done and restarted", rb)
	}
	if rbad, _ := getJobStatus(t, ts3.URL, "j-000009"); rbad.State != StateFailed ||
		!strings.HasPrefix(rbad.Error, "restart could not rebuild the job") {
		t.Errorf("unbuildable job after a second restart = state %q error %q, want failed by the rebuild",
			rbad.State, rbad.Error)
	}
}

// TestEvictionSurvivesCrash pins eviction persistence: with a full
// three-slot table, d's admission evicts the oldest finished job b
// while the older a is still running. After a crash the restored
// table is {a, c, d}; applying retention alone to the replayed jobs
// would drop a, the oldest finished by then, and keep b.
func TestEvictionSurvivesCrash(t *testing.T) {
	const body = `{"example":"wan","options":{"workers":1}}`
	dir := t.TempDir()

	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	started := make(chan string, 8)
	var hookCalls int32
	setTestJobStartHook(func(j *Job) {
		if atomic.AddInt32(&hookCalls, 1) == 1 {
			started <- j.ID
			<-release
		}
	})
	defer setTestJobStartHook(nil)

	cfg := Config{MaxConcurrent: 2, MaxJobs: 3, DataDir: dir, Logger: discardLogger()}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	// finish waits until id's job goroutine returned: its result record
	// is appended by then.
	finish := func(id string) {
		t.Helper()
		if got := waitJob(t, ts1, id); got.State != StateDone {
			t.Fatalf("job %s state = %q, want done", id, got.State)
		}
		<-srv1.getJob(id).Done()
	}
	a, _ := submit(t, ts1, body)
	if id := <-started; id != a.ID {
		t.Fatalf("running job is %s, want %s", id, a.ID)
	}
	b, _ := submit(t, ts1, body)
	finish(b.ID)
	c, _ := submit(t, ts1, body)
	finish(c.ID)
	d, code := submit(t, ts1, body)
	if code != http.StatusAccepted {
		t.Fatalf("job d status = %d, want 202 (b is evictable)", code)
	}
	finish(d.ID)
	releaseAll()
	finish(a.ID)
	srv1.store.Crash()
	drainServer(t, srv1)
	ts1.Close()

	setTestJobStartHook(nil)
	_, ts2 := newTestServer(t, cfg)
	resp, err := http.Get(ts2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []jobJSON `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range list.Jobs {
		got = append(got, j.ID)
	}
	if want := []string{a.ID, c.ID, d.ID}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("restored table = %v, want %v", got, want)
	}
}

// TestRestartedSurvivesSecondCrash: a re-executed job's restarted bit
// lives on its result record, so a second crash after the re-run
// restores it done, restarted, with the byte-identical result.
func TestRestartedSurvivesSecondCrash(t *testing.T) {
	const body = `{"example":"wan","options":{"workers":1}}`
	dir := t.TempDir()

	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	started := make(chan string, 8)
	setTestJobStartHook(func(j *Job) {
		started <- j.ID
		<-release
	})
	defer setTestJobStartHook(nil)

	cfg := Config{MaxConcurrent: 1, DataDir: dir, Logger: discardLogger()}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	j, _ := submit(t, ts1, body)
	<-started
	srv1.store.Crash()
	releaseAll()
	drainServer(t, srv1)
	ts1.Close()

	setTestJobStartHook(nil)
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	if rj := waitJob(t, ts2, j.ID); rj.State != StateDone || !rj.Restarted {
		t.Fatalf("re-run job = state %q restarted %v, want done and restarted", rj.State, rj.Restarted)
	}
	<-srv2.getJob(j.ID).Done() // its result record is appended by then
	result := rawResult(t, ts2.URL, j.ID)
	srv2.store.Crash()
	drainServer(t, srv2)
	ts2.Close()

	_, ts3 := newTestServer(t, cfg)
	rj, code := getJobStatus(t, ts3.URL, j.ID)
	if code != http.StatusOK || rj.State != StateDone || !rj.Restarted {
		t.Fatalf("job after the second crash = %+v (status %d), want done and restarted", rj, code)
	}
	if got := rawResult(t, ts3.URL, j.ID); string(got) != string(result) {
		t.Errorf("result changed across the second crash:\n  before: %s\n  after:  %s", result, got)
	}
}

// TestJobWritesTwoRecords: a job's durable life is its submission and
// its terminal result — two WAL records, each fsynced.
func TestJobWritesTwoRecords(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, DataDir: t.TempDir()})
	j, _ := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	waitJob(t, ts, j.ID)
	<-srv.getJob(j.ID).Done() // its result record is appended by then
	c := srv.Registry().Snapshot().CounterMap()
	if c["durable/wal/records"] != 2 || c["durable/wal/fsyncs"] != 2 {
		t.Errorf("one job wrote %d WAL records with %d fsyncs, want 2 and 2",
			c["durable/wal/records"], c["durable/wal/fsyncs"])
	}
}

// TestStreamEndsBeforeResultSync: a job's SSE stream ends, and GET
// reports it done, while the fsync of its result record is still held.
// Done stays open until that sync returns, and the WAL then holds the
// result.
func TestStreamEndsBeforeResultSync(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaulty(nil)
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, DataDir: dir, Durable: durable.Options{FS: ffs}})

	// The job record's sync is the first from here on, the result
	// record's the second: hold that one.
	held, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	releaseSync := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseSync()
	var syncs atomic.Int32
	ffs.Stall(func(op string) {
		if op == "sync" && syncs.Add(1) == 2 {
			close(held)
			<-release
		}
	})

	j, code := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	select {
	case <-held:
	case <-time.After(30 * time.Second):
		t.Fatal("the job never reached its result record's sync")
	}

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(ts.URL + j.Links.Events)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("SSE stream did not end while the result sync was held: %v", err)
	}
	if trailer := ": stream closed (job done)\n\n"; !strings.HasSuffix(string(body), trailer) {
		t.Errorf("SSE stream does not end with %q:\n%s", trailer, body)
	}
	if got, _ := getJobStatus(t, ts.URL, j.ID); got.State != StateDone {
		t.Errorf("GET state = %q while the result sync is held, want done", got.State)
	}
	job := srv.getJob(j.ID)
	select {
	case <-job.Done():
		t.Fatal("Done closed before the result record's sync returned")
	default:
	}

	releaseSync()
	<-job.Done()
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(string(wal)), "\n") {
		var rec durable.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("WAL line %q: %v", line, err)
		}
		found = found || rec.T == durable.RecordResult && rec.ID == j.ID
	}
	if !found {
		t.Errorf("WAL holds no result record for %s:\n%s", j.ID, wal)
	}
}

// TestRestoreIgnoresRetiredOptions: request options are only workers
// and timeoutMs, but a WAL written before the others were retired can
// hold a job whose spec still carries one, here maxCandidates, which
// used to fail the job with a candidate-cap error. A restart decodes
// the spec leniently, so the job re-runs the one flow to WAN's
// optimum; a POST of the same body is refused for the unknown field.
func TestRestoreIgnoresRetiredOptions(t *testing.T) {
	const body = `{"example":"wan","options":{"workers":1,"maxCandidates":1}}`
	dir := t.TempDir()
	st, _, err := durable.Open(dir, durable.Options{Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJob("j-000001", "wan", time.Now(), json.RawMessage(body), "", ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{MaxConcurrent: 1, DataDir: dir})
	j := waitJob(t, ts, "j-000001")
	if j.State != StateDone || !j.Restarted || j.Result == nil {
		t.Fatalf("restored job = state %q error %q restarted %v, want re-run to done and restarted",
			j.State, j.Error, j.Restarted)
	}
	if got := fmt.Sprintf("%.3f", j.Result.Cost); got != "464.552" || !j.Result.Optimal {
		t.Errorf("restored job cost %s optimal %v, want WAN's optimum 464.552", got, j.Result.Optimal)
	}
	if _, code := submit(t, ts, body); code != http.StatusBadRequest {
		t.Errorf("POST with a retired option = %d, want 400", code)
	}
}
