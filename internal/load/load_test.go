package load

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeDaemon is a minimal in-memory cdcsd stand-in: it accepts
// submissions (optionally shedding every shedEvery-th one) and reports
// each job done after one poll.
type fakeDaemon struct {
	ts        *httptest.Server
	submits   atomic.Int64
	shedEvery int64 // shed the n-th submission when n%shedEvery==0; 0 = never
	admission string
}

func newFakeDaemon(t *testing.T, shedEvery int64, admission string) *fakeDaemon {
	t.Helper()
	d := &fakeDaemon{shedEvery: shedEvery, admission: admission}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", func(w http.ResponseWriter, r *http.Request) {
		n := d.submits.Add(1)
		if d.shedEvery > 0 && n%d.shedEvery == 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
			return
		}
		var req struct {
			Workload string `json:"workload"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j-%06d","workload":%q,"state":"queued","admission":%q}`,
			n, req.Workload, d.admission)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"state":"done","admission":%q,"result":{"cost":1}}`,
			r.PathValue("id"), d.admission)
	})
	d.ts = httptest.NewServer(mux)
	t.Cleanup(d.ts.Close)
	return d
}

// TestRunHappyPath drives a short burst against two healthy replicas
// and checks the report's arithmetic end to end.
func TestRunHappyPath(t *testing.T) {
	a := newFakeDaemon(t, 0, "")
	b := newFakeDaemon(t, 0, "")
	reg := obs.NewRegistry()
	rep, err := Run(context.Background(), Config{
		Targets:  []string{a.ts.URL, b.ts.URL},
		QPS:      200,
		Duration: 200 * time.Millisecond,
		Deadline: 5 * time.Second,
		Registry: reg,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Offered == 0 {
		t.Fatal("no arrivals offered")
	}
	if rep.Completed != rep.Offered {
		t.Errorf("completed %d of %d offered against healthy replicas", rep.Completed, rep.Offered)
	}
	if rep.Shed != 0 || rep.Errors != 0 || rep.DeadlineMissed != 0 {
		t.Errorf("shed/errors/missed = %d/%d/%d, want all zero", rep.Shed, rep.Errors, rep.DeadlineMissed)
	}
	if len(rep.Replicas) != 2 {
		t.Fatalf("replicas = %+v, want both servers represented", rep.Replicas)
	}
	if rep.Balance <= 0 || rep.Balance > 1 {
		t.Errorf("balance = %v, want in (0,1]", rep.Balance)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P99 {
		t.Errorf("latency summary not monotone: %+v", rep.Latency)
	}
	if rep.AchievedQPS <= 0 {
		t.Error("achieved QPS must be positive")
	}
	var total int64
	for _, n := range rep.ByWorkload {
		total += n
	}
	if total != rep.Completed {
		t.Errorf("by-workload sums to %d, want %d", total, rep.Completed)
	}
	snap := reg.Snapshot().CounterMap()
	if snap["load/offered"] != rep.Offered || snap["load/completed"] != rep.Completed {
		t.Errorf("counters offered=%d completed=%d, want %d/%d",
			snap["load/offered"], snap["load/completed"], rep.Offered, rep.Completed)
	}
	for _, name := range []string{"load/offered", "load/completed", "load/degraded",
		"load/shed", "load/errors", "load/deadline_missed"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("counter %s not registered", name)
		}
	}
}

// TestRunCountsShedAndDegrade: a replica shedding every 3rd
// submission and admitting the rest degraded must show up in the
// rates, without the run failing.
func TestRunCountsShedAndDegrade(t *testing.T) {
	d := newFakeDaemon(t, 3, "degraded")
	rep, err := Run(context.Background(), Config{
		Targets:  []string{d.ts.URL},
		QPS:      200,
		Duration: 150 * time.Millisecond,
		Deadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Shed == 0 {
		t.Error("shed = 0, want the 429s counted")
	}
	if rep.Completed == 0 {
		t.Error("completed = 0, want the accepted jobs to finish")
	}
	if rep.Degraded != rep.Completed {
		t.Errorf("degraded = %d, want every completed job (%d) counted degraded", rep.Degraded, rep.Completed)
	}
	if rep.ShedRate <= 0 || rep.ShedRate >= 1 {
		t.Errorf("shed rate = %v, want in (0,1)", rep.ShedRate)
	}
	if rep.Shed+rep.Completed != rep.Offered {
		t.Errorf("shed %d + completed %d != offered %d", rep.Shed, rep.Completed, rep.Offered)
	}
}

// TestRunRetriesRotateToIdleTarget: with two attempts, an arrival
// that its round-robin target sheds retries on the other target at
// once, and each completion is credited to the replica that accepted
// it.
func TestRunRetriesRotateToIdleTarget(t *testing.T) {
	busy := newFakeDaemon(t, 1, "")
	idle := newFakeDaemon(t, 0, "")
	rep, err := Run(context.Background(), Config{
		Targets:  []string{busy.ts.URL, idle.ts.URL},
		QPS:      100,
		Duration: 200 * time.Millisecond,
		Deadline: 5 * time.Second,
		Attempts: 2,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Offered == 0 || rep.Shed != 0 || rep.Completed != rep.Offered {
		t.Errorf("offered/completed/shed = %d/%d/%d, want every arrival completed and none shed",
			rep.Offered, rep.Completed, rep.Shed)
	}
	if len(rep.Replicas) != 1 || rep.Replicas[0].Server != idle.ts.URL ||
		rep.Replicas[0].Completed != rep.Completed {
		t.Errorf("replicas = %+v, want all %d completions credited to %s",
			rep.Replicas, rep.Completed, idle.ts.URL)
	}
	if got, want := busy.submits.Load(), (rep.Offered+1)/2; got != want {
		t.Errorf("busy saw %d submissions, want %d: one per arrival that started there", got, want)
	}
}

// TestRunDeadlineMissed: a daemon that never finishes jobs turns
// every arrival into a deadline miss, not an error.
func TestRunDeadlineMissed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j-000001","state":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"j-000001","state":"running"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	rep, err := Run(context.Background(), Config{
		Targets:  []string{ts.URL},
		QPS:      100,
		Duration: 100 * time.Millisecond,
		Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.DeadlineMissed == 0 || rep.DeadlineMissed != rep.Offered {
		t.Errorf("deadline missed = %d of %d offered, want all", rep.DeadlineMissed, rep.Offered)
	}
	if rep.Completed != 0 || rep.Errors != 0 {
		t.Errorf("completed/errors = %d/%d, want 0/0", rep.Completed, rep.Errors)
	}
}

// TestRunErrorsCounted: a replica that 500s every submission counts
// errors; the generator itself succeeds.
func TestRunErrorsCounted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	rep, err := Run(context.Background(), Config{
		Targets:  []string{ts.URL},
		QPS:      100,
		Duration: 100 * time.Millisecond,
		Deadline: time.Second,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Errors == 0 || rep.Errors != rep.Offered {
		t.Errorf("errors = %d of %d offered, want all", rep.Errors, rep.Offered)
	}
	if rep.ErrorRate != 1 {
		t.Errorf("error rate = %v, want 1", rep.ErrorRate)
	}
}

// TestRunValidation rejects unusable configs.
func TestRunValidation(t *testing.T) {
	cases := []Config{
		{QPS: 10, Duration: time.Second},
		{Targets: []string{"http://x"}, Duration: time.Second},
		{Targets: []string{"http://x"}, QPS: 10},
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
}

// TestExpandMix pins the weighted schedule.
func TestExpandMix(t *testing.T) {
	sched := expandMix([]Spec{{Name: "a", Weight: 2}, {Name: "b"}, {Name: "c", Weight: -1}})
	var names []string
	for _, s := range sched {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "a,a,b,c" {
		t.Errorf("schedule = %s, want a,a,b,c", got)
	}
}

// TestPercentiles pins nearest-rank arithmetic on a known set.
func TestPercentiles(t *testing.T) {
	var lat []time.Duration
	for i := 1; i <= 100; i++ {
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	p := percentiles(lat)
	if p.P50 != 50 || p.P90 != 90 || p.P99 != 99 || p.Max != 100 {
		t.Errorf("percentiles = %+v, want 50/90/99/100", p)
	}
	if z := percentiles(nil); z != (Latency{}) {
		t.Errorf("empty percentiles = %+v, want zero", z)
	}
}

// TestRunTraceExemplars: with an ID source configured, every arrival
// carries a traceparent header and the report ends with the slowest
// trace IDs as exemplars.
func TestRunTraceExemplars(t *testing.T) {
	var mu sync.Mutex
	headers := map[string]bool{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers[r.Header.Get("traceparent")] = true
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j-000001","state":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"j-000001","state":"done","result":{"cost":1}}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		Targets:  []string{ts.URL},
		QPS:      200,
		Duration: 100 * time.Millisecond,
		Deadline: 5 * time.Second,
		TraceIDs: obs.NewIDSource(42),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Completed == 0 {
		t.Fatal("no completions")
	}
	mu.Lock()
	seen := make([]string, 0, len(headers))
	for h := range headers {
		seen = append(seen, h)
	}
	mu.Unlock()
	if len(seen) != int(rep.Offered) {
		t.Errorf("saw %d distinct traceparents for %d arrivals, want one fresh root each",
			len(seen), rep.Offered)
	}
	for _, h := range seen {
		if _, ok := obs.ParseTraceparent(h); !ok {
			t.Errorf("arrival carried unparseable traceparent %q", h)
		}
	}
	if len(rep.Exemplars) == 0 || len(rep.Exemplars) > maxExemplars {
		t.Fatalf("exemplars = %+v, want 1..%d entries", rep.Exemplars, maxExemplars)
	}
	for i, ex := range rep.Exemplars {
		if len(ex.TraceID) != 32 || ex.LatencyMs < rep.Latency.P99 {
			t.Errorf("exemplar %d = %+v, want a p99-or-slower traced request", i, ex)
		}
		if i > 0 && ex.LatencyMs > rep.Exemplars[i-1].LatencyMs {
			t.Errorf("exemplars not slowest-first: %v then %v",
				rep.Exemplars[i-1].LatencyMs, ex.LatencyMs)
		}
	}

	// Tracing off: no headers, no exemplars.
	repOff, err := Run(context.Background(), Config{
		Targets:  []string{ts.URL},
		QPS:      100,
		Duration: 50 * time.Millisecond,
		Deadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(repOff.Exemplars) != 0 {
		t.Errorf("untraced run reported exemplars: %+v", repOff.Exemplars)
	}
}
