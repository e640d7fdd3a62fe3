package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable/faultfs"
	"repro/internal/obs"
)

// getJobTrace fetches GET /v1/jobs/{id}/trace, returning raw bytes and
// the decoded envelope.
func getJobTrace(t *testing.T, ts *httptest.Server, id string) ([]byte, jobTraceJSON) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace of %s: status %d: %s", id, resp.StatusCode, raw)
	}
	var env jobTraceJSON
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("decode trace: %v\n%s", err, raw)
	}
	return raw, env
}

// getRingTrace fetches GET /v1/traces/{traceID} from one replica.
func getRingTrace(t *testing.T, ts *httptest.Server, traceID string) (traceJSON, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env traceJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
	}
	return env, resp.StatusCode
}

// findSpan returns the first span named name in the forest (nil when
// absent), depth-first.
func findSpan(spans []*obs.Span, name string) *obs.Span {
	for _, sp := range spans {
		if sp.Name == name {
			return sp
		}
		if found := findSpan(sp.Children, name); found != nil {
			return found
		}
	}
	return nil
}

// submitTraced POSTs body to /v1/synthesize with traceparent as its
// traceparent header (none when empty) and requires a 202.
func submitTraced(t *testing.T, ts *httptest.Server, body, traceparent string) jobJSON {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/synthesize", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status = %d: %s", resp.StatusCode, raw)
	}
	var j jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestWALAppendSpanPrecedesQueueWait: on a durable server the job
// record's append is its own serve/wal-append child of serve/job, and
// it ends before serve/queue-wait opens, so the queue wait times only
// the wait for a slot.
func TestWALAppendSpanPrecedesQueueWait(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, DataDir: t.TempDir()})
	j, code := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if fin := waitJob(t, ts, j.ID); fin.State != StateDone {
		t.Fatalf("state = %q (error %q)", fin.State, fin.Error)
	}
	raw, env := getJobTrace(t, ts, j.ID)
	root := findSpan(env.Spans, "serve/job")
	if root == nil {
		t.Fatalf("no serve/job root span:\n%s", raw)
	}
	wal, queue := findSpan(root.Children, "serve/wal-append"), findSpan(root.Children, "serve/queue-wait")
	if wal == nil || queue == nil {
		t.Fatalf("want serve/wal-append and serve/queue-wait under serve/job:\n%s", raw)
	}
	if wal.ParentID != root.SpanID {
		t.Errorf("serve/wal-append parent = %q, want root %q", wal.ParentID, root.SpanID)
	}
	if end := wal.StartUs + wal.DurUs; end > queue.StartUs {
		t.Errorf("serve/wal-append ends at %dus, after serve/queue-wait opens at %dus", end, queue.StartUs)
	}
}

// TestJobTraceEndpoint: a finished job's /trace serves the full span
// forest — serve/job root with admission, queue-wait and the synth
// phase tree nested under it — byte-stably under a frozen clock and a
// seeded ID source, and the same trace is retrievable from the ring.
func TestJobTraceEndpoint(t *testing.T) {
	clock := faultfs.NewClock(time.Unix(1_700_000_000, 0).UTC())
	_, ts := newTestServer(t, Config{Now: clock.Now, TraceIDs: obs.NewIDSource(42)})

	j, code := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if j.TraceID == "" || len(j.TraceID) != 32 {
		t.Fatalf("job envelope traceId = %q, want 32 hex digits", j.TraceID)
	}
	if j.Links.Trace != "/v1/jobs/"+j.ID+"/trace" {
		t.Fatalf("trace link = %q", j.Links.Trace)
	}
	fin := waitJob(t, ts, j.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %q (error %q)", fin.State, fin.Error)
	}
	if fin.TraceID != j.TraceID {
		t.Errorf("traceId changed across the lifecycle: %q then %q", j.TraceID, fin.TraceID)
	}

	raw1, env := getJobTrace(t, ts, j.ID)
	raw2, _ := getJobTrace(t, ts, j.ID)
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("/trace not byte-stable under the frozen clock:\n%s\nvs\n%s", raw1, raw2)
	}
	if env.TraceID != j.TraceID {
		t.Errorf("trace envelope traceId = %q, want %q", env.TraceID, j.TraceID)
	}
	root := findSpan(env.Spans, "serve/job")
	if root == nil {
		t.Fatalf("no serve/job root span:\n%s", raw1)
	}
	if root.TraceID != j.TraceID || root.SpanID == "" || root.ParentID != "" {
		t.Errorf("root identity = %+v, want fresh root of trace %s", root, j.TraceID)
	}
	if v, _ := root.Attr("outcome"); v != "done" {
		t.Errorf("root outcome = %q, want done", v)
	}
	for _, name := range []string{"serve/admission", "serve/queue-wait"} {
		sp := findSpan(root.Children, name)
		if sp == nil {
			t.Fatalf("missing %s child span", name)
		}
		if sp.ParentID != root.SpanID || sp.TraceID != j.TraceID {
			t.Errorf("%s = parent %q trace %q, want under root", name, sp.ParentID, sp.TraceID)
		}
	}
	if findSpan(root.Children, "serve/wal-append") != nil {
		t.Error("serve/wal-append recorded on a server without a store")
	}
	// The synth phase tree nests under the serve/job root.
	run := findSpan(root.Children, "synth/run")
	if run == nil {
		t.Fatalf("synth/run not nested under serve/job:\n%s", raw1)
	}
	if run.ParentID != root.SpanID {
		t.Errorf("synth/run parent = %q, want root %q", run.ParentID, root.SpanID)
	}
	for _, phase := range []string{"p2p/plan", "merging/enumerate", "synth/solve"} {
		if findSpan(run.Children, phase) == nil {
			t.Errorf("synth phase %s missing from the job trace", phase)
		}
	}

	// Chrome rendering of the same forest.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	chrome, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(chrome, []byte(`"ph":"X"`)) || !bytes.Contains(chrome, []byte(`"name":"serve/job"`)) {
		t.Errorf("chrome export missing complete events:\n%s", chrome)
	}

	// The finished trace is in the ring too.
	ring, code := getRingTrace(t, ts, j.TraceID)
	if code != http.StatusOK || findSpan(ring.Spans, "serve/job") == nil {
		t.Errorf("ring lookup = status %d spans %v, want the job trace", code, ring.Spans)
	}
	if _, code := getRingTrace(t, ts, "ffffffffffffffffffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown trace lookup status = %d, want 404", code)
	}
}

// TestJobTraceDeterministicAcrossSeededServers: two servers with the
// same ID seed and the same frozen clock produce byte-identical
// /trace answers for the same submission.
func TestJobTraceDeterministicAcrossSeededServers(t *testing.T) {
	run := func() []byte {
		clock := faultfs.NewClock(time.Unix(1_700_000_000, 0).UTC())
		_, ts := newTestServer(t, Config{Now: clock.Now, TraceIDs: obs.NewIDSource(7)})
		j, code := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit status = %d", code)
		}
		if fin := waitJob(t, ts, j.ID); fin.State != StateDone {
			t.Fatalf("state = %q", fin.State)
		}
		raw, _ := getJobTrace(t, ts, j.ID)
		return raw
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("same seed, same clock, different trace bytes:\n%s\nvs\n%s", a, b)
	}
}

// TestTraceparentPropagation: a valid inbound traceparent is joined
// (job parents under the remote span, counter roots_propagated), a
// malformed one roots a fresh trace without erroring.
func TestTraceparentPropagation(t *testing.T) {
	srv, ts := newTestServer(t, Config{TraceIDs: obs.NewIDSource(42)})
	remote := obs.NewIDSource(999).NewRoot()

	j := submitTraced(t, ts, `{"example":"wan","options":{"workers":1}}`, remote.Traceparent())
	if j.TraceID != remote.TraceID.String() {
		t.Errorf("propagated job traceId = %q, want remote %s", j.TraceID, remote.TraceID)
	}
	if fin := waitJob(t, ts, j.ID); fin.State != StateDone {
		t.Fatalf("state = %q", fin.State)
	}
	_, env := getJobTrace(t, ts, j.ID)
	root := findSpan(env.Spans, "serve/job")
	if root == nil || root.ParentID != remote.SpanID.String() {
		t.Errorf("propagated root = %+v, want parent %s", root, remote.SpanID)
	}

	// Malformed headers must not fail admission; they root fresh traces.
	for _, bad := range []string{"not-a-traceparent", "00-zz-zz-01"} {
		jb := submitTraced(t, ts, `{"example":"wan","options":{"workers":1}}`, bad)
		if jb.TraceID == "" || jb.TraceID == remote.TraceID.String() {
			t.Errorf("malformed header %q: traceId = %q, want a fresh root", bad, jb.TraceID)
		}
		waitJob(t, ts, jb.ID)
	}
	jf := submitTraced(t, ts, `{"example":"wan","options":{"workers":1}}`, "")
	if jf.TraceID == "" {
		t.Error("headerless submission must still root a trace")
	}
	waitJob(t, ts, jf.ID)

	snap := srv.Registry().Snapshot().CounterMap()
	if snap["trace/roots_propagated"] != 1 {
		t.Errorf("trace/roots_propagated = %d, want 1", snap["trace/roots_propagated"])
	}
	if snap["trace/roots_new"] != 3 {
		t.Errorf("trace/roots_new = %d, want 3 (two malformed + one absent)", snap["trace/roots_new"])
	}
	if snap["trace/spans_started"] == 0 {
		t.Error("trace/spans_started never incremented")
	}
}

// TestSharedTraceparentGroupsJobs: two submissions sent one
// traceparent report its trace ID, the ring merges their forests into
// one trace with both serve/job roots under the remote span, and each
// job's own /trace still holds only that job's forest.
func TestSharedTraceparentGroupsJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, TraceIDs: obs.NewIDSource(42)})
	remote := obs.NewIDSource(999).NewRoot()
	tid := remote.TraceID.String()

	jobs := []jobJSON{
		submitTraced(t, ts, `{"example":"wan","options":{"workers":1}}`, remote.Traceparent()),
		submitTraced(t, ts, `{"example":"lan","options":{"workers":1}}`, remote.Traceparent()),
	}
	for _, j := range jobs {
		if j.TraceID != tid {
			t.Errorf("job %s traceId = %q, want the shared %s", j.ID, j.TraceID, tid)
		}
		if fin := waitJob(t, ts, j.ID); fin.State != StateDone {
			t.Fatalf("job %s state = %q (error %q)", j.ID, fin.State, fin.Error)
		}
	}

	ring, code := getRingTrace(t, ts, tid)
	if code != http.StatusOK {
		t.Fatalf("ring lookup status = %d", code)
	}
	roots := make(map[string]bool)
	for _, sp := range ring.Spans {
		if sp.Name != "serve/job" {
			t.Errorf("ring root %q, want only serve/job roots", sp.Name)
			continue
		}
		if sp.ParentID != remote.SpanID.String() || sp.TraceID != tid {
			t.Errorf("serve/job = parent %q trace %q, want under remote span %s of %s", sp.ParentID, sp.TraceID, remote.SpanID, tid)
		}
		id, _ := sp.Attr("job_id")
		roots[id] = true
	}
	if len(ring.Spans) != 2 || !roots[jobs[0].ID] || !roots[jobs[1].ID] {
		t.Errorf("ring holds roots for %v, want one each for %s and %s", roots, jobs[0].ID, jobs[1].ID)
	}

	for _, j := range jobs {
		raw, env := getJobTrace(t, ts, j.ID)
		if len(env.Spans) != 1 || env.Spans[0].Name != "serve/job" {
			t.Fatalf("job %s trace has %d roots, want its own serve/job only:\n%s", j.ID, len(env.Spans), raw)
		}
		if id, _ := env.Spans[0].Attr("job_id"); id != j.ID {
			t.Errorf("job %s trace is rooted at job %q", j.ID, id)
		}
	}
}

// TestTraceRingEvicts: a cap-1 ring drops the oldest trace whole and
// counts the eviction.
func TestTraceRingEvicts(t *testing.T) {
	srv, ts := newTestServer(t, Config{TraceIDs: obs.NewIDSource(42), TraceRing: 1})
	j1, _ := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	waitJob(t, ts, j1.ID)
	j2, _ := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	waitJob(t, ts, j2.ID)

	if _, code := getRingTrace(t, ts, j1.TraceID); code != http.StatusNotFound {
		t.Errorf("evicted trace lookup status = %d, want 404", code)
	}
	if _, code := getRingTrace(t, ts, j2.TraceID); code != http.StatusOK {
		t.Errorf("latest trace lookup status = %d, want 200", code)
	}
	snap := srv.Registry().Snapshot().CounterMap()
	if snap["trace/ring_evictions"] == 0 || snap["trace/spans_dropped"] == 0 {
		t.Errorf("eviction counters = %d/%d, want both > 0",
			snap["trace/ring_evictions"], snap["trace/spans_dropped"])
	}
	// The job's own /trace endpoint still answers from the live tracer.
	if _, env := getJobTrace(t, ts, j1.ID); findSpan(env.Spans, "serve/job") == nil {
		t.Error("evicted ring entry must not affect the per-job trace")
	}
}

// TestRestoreReplaysTraceIdentity: a daemon restart preserves trace
// correlation — a restored finished job answers with its original
// trace ID (SSE and /trace), and a re-queued job's re-execution joins
// the original trace as a child of the crashed run's root span.
func TestRestoreReplaysTraceIdentity(t *testing.T) {
	const body = `{"example":"wan","options":{"workers":1}}`
	dir := t.TempDir()

	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	first := true
	var hookMu sync.Mutex
	setTestJobStartHook(func(j *Job) {
		hookMu.Lock()
		f := first
		first = false
		hookMu.Unlock()
		if !f {
			<-release
		}
	})
	defer setTestJobStartHook(nil)

	srv1, err := New(Config{
		MaxConcurrent: 1, DataDir: dir,
		TraceIDs: obs.NewIDSource(42), Logger: discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	j1, _ := submit(t, ts1, body)
	if fin := waitJob(t, ts1, j1.ID); fin.State != StateDone {
		t.Fatalf("job 1 state = %q", fin.State)
	}
	<-srv1.getJob(j1.ID).Done() // its result record is appended by then
	j2, _ := submit(t, ts1, body)
	if j1.TraceID == "" || j2.TraceID == "" {
		t.Fatal("jobs submitted without trace IDs")
	}
	_, env1 := getJobTrace(t, ts1, j1.ID)
	origRoot := findSpan(env1.Spans, "serve/job")
	if origRoot == nil {
		t.Fatal("job 1 has no root span before the crash")
	}

	// Crash the store with job 2 parked mid-run, then restart.
	srv1.store.Crash()
	releaseAll()
	drainServer(t, srv1)
	ts1.Close()
	setTestJobStartHook(nil)

	srv2, ts2 := newTestServer(t, Config{
		MaxConcurrent: 1, DataDir: dir, TraceIDs: obs.NewIDSource(43),
	})
	_ = srv2

	// Finished job: original trace ID on the envelope, the SSE replay,
	// and /trace (spans themselves did not survive — the forest is
	// empty but correctly identified).
	r1, code := getJobStatus(t, ts2.URL, j1.ID)
	if code != http.StatusOK || r1.TraceID != j1.TraceID {
		t.Errorf("restored job traceId = %q (status %d), want %q", r1.TraceID, code, j1.TraceID)
	}
	raw, tenv := getJobTrace(t, ts2, j1.ID)
	if tenv.TraceID != j1.TraceID || len(tenv.Spans) != 0 {
		t.Errorf("restored /trace = %s, want original trace ID with no spans", raw)
	}
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + j1.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(events) == 0 {
		t.Fatal("restored job has no SSE replay")
	}
	for _, e := range events {
		if e.ev.TraceID != j1.TraceID {
			t.Fatalf("restored SSE event traceId = %q, want %q", e.ev.TraceID, j1.TraceID)
		}
	}

	// Re-queued job: the re-execution keeps the trace ID and parents
	// under the crashed run's root span.
	fin2 := waitJob(t, ts2, j2.ID)
	if fin2.State != StateDone || !fin2.Restarted {
		t.Fatalf("re-queued job = %+v, want done and restarted", fin2)
	}
	if fin2.TraceID != j2.TraceID {
		t.Errorf("re-queued job traceId = %q, want original %q", fin2.TraceID, j2.TraceID)
	}
	_, tenv2 := getJobTrace(t, ts2, j2.ID)
	reroot := findSpan(tenv2.Spans, "serve/job")
	if reroot == nil {
		t.Fatal("re-queued job has no new root span")
	}
	if reroot.TraceID != j2.TraceID || reroot.ParentID == "" {
		t.Errorf("re-run root = trace %q parent %q, want a child of the crashed run's root", reroot.TraceID, reroot.ParentID)
	}
	adm := findSpan(reroot.Children, "serve/admission")
	if adm == nil {
		t.Fatal("re-run lacks an admission span")
	}
	if tier, _ := adm.Attr("tier"); tier != "restored" {
		t.Errorf("re-run admission tier = %q, want restored", tier)
	}
}
