package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// infeasibleGraph/infeasibleLibrary build a deterministically failing
// instance: the only link's span is shorter than the channel and the
// library has no repeaters, so p2p planning errors out.
const infeasibleGraph = `{"norm":"euclidean",
 "ports":[{"name":"A.out","module":"A","x":0,"y":0},{"name":"B.in","module":"B","x":10,"y":0}],
 "channels":[{"name":"c1","from":"A.out","to":"B.in","bandwidth":1}]}`

const infeasibleLibrary = `{"links":[{"name":"short","bandwidth":200,"maxSpan":1,"costPerLength":1}],"nodes":[]}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainServer(t, srv)
	})
	return srv, ts
}

func drainServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Drain(ctx)
}

func submit(t *testing.T, ts *httptest.Server, body string) (jobJSON, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/synthesize: %v", err)
	}
	defer resp.Body.Close()
	var j jobJSON
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatalf("decode job: %v", err)
		}
	}
	return j, resp.StatusCode
}

func waitJob(t *testing.T, ts *httptest.Server, id string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			t.Fatalf("job %s not found: evicted or never admitted", id)
		}
		var j jobJSON
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job: %v", err)
		}
		if j.State == StateDone || j.State == StateFailed {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobJSON{}
}

func TestSynthesizeWanJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	j, code := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if j.ID == "" || j.Links.Events != "/v1/jobs/"+j.ID+"/events" {
		t.Fatalf("bad job envelope: %+v", j)
	}
	fin := waitJob(t, ts, j.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %q (error %q), want done", fin.State, fin.Error)
	}
	r := fin.Result
	if r == nil || !r.Optimal || r.Degraded {
		t.Fatalf("result = %+v, want optimal and not degraded", r)
	}
	if r.Cost <= 0 || r.Cost >= r.P2PCost {
		t.Errorf("cost = %v vs p2p %v, want 0 < cost < p2p", r.Cost, r.P2PCost)
	}
}

func TestSynthesizeReturnGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	j, _ := submit(t, ts, `{"example":"wan","returnGraph":true,"options":{"workers":1}}`)
	fin := waitJob(t, ts, j.ID)
	if fin.State != StateDone || len(fin.Result.Graph) == 0 {
		t.Fatalf("want done with embedded graph, got state %q graph %d bytes", fin.State, len(fin.Result.Graph))
	}
	if !json.Valid(fin.Result.Graph) {
		t.Error("embedded graph is not valid JSON")
	}
}

func TestJobFailure(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"graph":%s,"library":%s}`, infeasibleGraph, infeasibleLibrary)
	j, code := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	fin := waitJob(t, ts, j.ID)
	if fin.State != StateFailed || fin.Error == "" {
		t.Fatalf("state = %q error %q, want failed with an error message", fin.State, fin.Error)
	}
	snap := srv.Registry().Snapshot().CounterMap()
	if snap["serve/jobs_failed"] != 1 {
		t.Errorf("serve/jobs_failed = %d, want 1", snap["serve/jobs_failed"])
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{`,                       // malformed JSON
		`{"example":"nope"}`,      // unknown example
		`{}`,                      // neither example nor graph
		`{"unknownField":true}`,   // DisallowUnknownFields
		`{"example":"wan","x":1}`, // unknown field alongside valid ones
	} {
		if _, code := submit(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("submit(%q) status = %d, want 400", body, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestRejectWhenFull fills the one-slot job table with an unfinished
// job and asserts the next submission is rejected with 429. Job 1
// parks in the start hook until that submission has been answered, so
// the table is full however fast synthesis is (a wan job takes about a
// millisecond, and an admitted second POST would evict it).
func TestRejectWhenFull(t *testing.T) {
	const body = `{"example":"wan","options":{"workers":1}}`
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	setTestJobStartHook(func(j *Job) { <-release })
	defer setTestJobStartHook(nil)

	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxJobs: 1})
	j1, code := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("fill submit status = %d, want 202", code)
	}
	if _, code := submit(t, ts, body); code != http.StatusTooManyRequests {
		t.Fatalf("submit to a full one-slot job table: status = %d, want 429", code)
	}
	releaseAll()
	if got := waitJob(t, ts, j1.ID); got.State != StateDone {
		t.Errorf("job 1 state = %q, want done", got.State)
	}
	snap := srv.Registry().Snapshot().CounterMap()
	if snap["serve/jobs_rejected"] != 1 {
		t.Errorf("serve/jobs_rejected = %d, want 1", snap["serve/jobs_rejected"])
	}
}

func TestHealthzReadyzAndDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{Version: "test-v1"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["version"] != "test-v1" {
		t.Errorf("healthz = %v, want status ok and version test-v1", health)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz status = %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	if _, code := submit(t, ts, `{"example":"wan"}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	j, _ := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	waitJob(t, ts, j.ID)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE ucp_incumbents_total counter\n",
		"# TYPE serve_jobs_submitted_total counter\nserve_jobs_submitted_total 1\n",
		"# TYPE serve_jobs_completed_total counter\nserve_jobs_completed_total 1\n",
		"# TYPE serve_job_duration_ms histogram\n",
		"serve_job_duration_ms_bucket{le=\"+Inf\"} 1\n",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// sseEvent is one parsed Server-Sent Events frame.
type sseEvent struct {
	name string
	id   int64
	ev   obs.Event
}

// readSSE parses every frame from an open SSE stream until it ends.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.ev); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		case line == "":
			if cur.name != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	return out
}

func checkEventStream(t *testing.T, events []sseEvent) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no SSE events received")
	}
	incumbents := 0
	for i, e := range events {
		if want := int64(i + 1); e.id != want || e.ev.Seq != want {
			t.Fatalf("event %d: id=%d seq=%d, want both %d (replay/tail must be gap-free and duplicate-free)",
				i, e.id, e.ev.Seq, want)
		}
		if e.name != e.ev.Type {
			t.Errorf("event %d: SSE name %q != payload type %q", i, e.name, e.ev.Type)
		}
		if e.ev.Type == obs.EventIncumbent {
			incumbents++
		}
	}
	if events[0].ev.Type != obs.EventRunStart {
		t.Errorf("first event = %q, want run_start", events[0].ev.Type)
	}
	if last := events[len(events)-1].ev.Type; last != obs.EventRunEnd {
		t.Errorf("last event = %q, want run_end", last)
	}
	if incumbents == 0 {
		t.Error("no incumbent events in the stream")
	}
}

// TestSSELiveTail subscribes while the job is (most likely) still
// running, so the bulk of the stream arrives over the live tail; the
// stream must end on its own once the job finishes.
func TestSSELiveTail(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	j, _ := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	resp, err := http.Get(ts.URL + j.Links.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	checkEventStream(t, readSSE(t, resp.Body))
}

// TestSSEReplayAfterCompletion subscribes after the job finished: the
// whole stream is served from the replay ring and the tail closes
// immediately. The replayed history must be identical in sequence to
// what a live subscriber saw.
func TestSSEReplayAfterCompletion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	j, _ := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	waitJob(t, ts, j.ID)
	resp, err := http.Get(ts.URL + j.Links.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	checkEventStream(t, events)
}

// flushCounter counts the flushes a handler asks of its writer.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestSSEReplayAfterCompletionFlushesOnce: a subscriber to a finished
// job gets the whole replay and the end-of-stream trailer written as
// one batch, so the handler flushes exactly once.
func TestSSEReplayAfterCompletionFlushesOnce(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	j, _ := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	waitJob(t, ts, j.ID)
	// The state turns terminal just before the job's event stream
	// closes; wait for the close.
	<-srv.getJob(j.ID).done
	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, j.Links.Events, nil))
	if rec.flushes != 1 {
		t.Errorf("flushes = %d, want 1", rec.flushes)
	}
	body := rec.Body.String()
	checkEventStream(t, readSSE(t, strings.NewReader(body)))
	if trailer := ": stream closed (job done)\n\n"; !strings.HasSuffix(body, trailer) {
		t.Errorf("stream does not end with %q:\n%s", trailer, body)
	}
}

// TestMetricsScrapeUnderLoad hammers /metrics while jobs publish into
// the shared registry from pricing workers — the -race run of this
// test is the snapshot-vs-writer data-race check.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	var jobs []jobJSON
	for i := 0; i < 2; i++ {
		j, code := submit(t, ts, `{"example":"wan","options":{"workers":2}}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit status = %d", code)
		}
		jobs = append(jobs, j)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for _, j := range jobs {
		if fin := waitJob(t, ts, j.ID); fin.State != StateDone {
			t.Errorf("job %s state = %q, want done", j.ID, fin.State)
		}
	}
	close(stop)
	wg.Wait()
}
