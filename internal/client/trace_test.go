package client

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/buildinfo"
	"repro/internal/obs"
)

// TestRequestStamping: every client request carries the cdcs-client
// User-Agent, and a span context on the request context becomes a
// traceparent header; without one no header is sent.
func TestRequestStamping(t *testing.T) {
	type seen struct{ ua, tp string }
	var got []seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, seen{ua: r.Header.Get("User-Agent"), tp: r.Header.Get(obs.TraceparentHeader)})
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"id":"j-000001","state":"queued"}`))
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})

	if _, err := c.Submit(context.Background(), []byte(`{"example":"wan"}`)); err != nil {
		t.Fatal(err)
	}
	sc := obs.NewIDSource(42).NewRoot()
	ctx := obs.ContextWithSpanContext(context.Background(), sc)
	if _, err := c.Submit(ctx, []byte(`{"example":"wan"}`)); err != nil {
		t.Fatal(err)
	}

	if len(got) != 2 {
		t.Fatalf("server saw %d requests", len(got))
	}
	wantUA := "cdcs-client/" + buildinfo.Version()
	for i, s := range got {
		if s.ua != wantUA {
			t.Errorf("request %d User-Agent = %q, want %q", i, s.ua, wantUA)
		}
	}
	if got[0].tp != "" {
		t.Errorf("context without a span stamped traceparent %q", got[0].tp)
	}
	if want := sc.Traceparent(); got[1].tp != want {
		t.Errorf("traceparent = %q, want %q", got[1].tp, want)
	}
}

// traceReplica fakes one replica: it sheds every submission with 429
// when shed is set and accepts it otherwise, and answers GET
// /v1/traces/{id} with body (404 when empty), counting those calls.
func traceReplica(t *testing.T, shed bool, body string) (*httptest.Server, *int32) {
	t.Helper()
	var traceCalls int32
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			if shed {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write([]byte(`{"id":"j-000001","state":"queued","traceId":"t1"}`))
			return
		}
		atomic.AddInt32(&traceCalls, 1)
		if !strings.HasPrefix(r.URL.Path, "/v1/traces/") || body == "" {
			http.Error(w, `{"error":"no local spans"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(body))
	})), &traceCalls
}

// TestCollectTraceReadsAcceptingReplica: after a submission rotates
// past a shedding replica, the trace comes from the replica that
// accepted the job alone, and its process row is labeled with that
// replica's base URL; the shedding replica is never asked.
func TestCollectTraceReadsAcceptingReplica(t *testing.T) {
	busy, busyCalls := traceReplica(t, true, `{"traceId":"t1","spans":[
		{"name":"elsewhere","startUs":0,"durUs":1}]}`)
	defer busy.Close()
	idle, idleCalls := traceReplica(t, false, `{"traceId":"t1","spans":[
		{"name":"serve/job","startUs":2,"durUs":6}]}`)
	defer idle.Close()

	c := New(Config{BaseURLs: []string{busy.URL, idle.URL}})
	job, err := c.Submit(context.Background(), []byte(`{"example":"wan"}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.Server != idle.URL {
		t.Fatalf("job server = %q, want the accepting replica %q", job.Server, idle.URL)
	}
	data, err := c.CollectTrace(context.Background(), job.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"name":"process_name","ph":"M"`, `"args":{"name":"` + idle.URL + `"}`,
		`"name":"serve/job","ph":"X","ts":2,"dur":6,"pid":1`,
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("trace missing %s:\n%s", want, data)
		}
	}
	if bytes.Contains(data, []byte("elsewhere")) {
		t.Errorf("trace holds the shedding replica's spans:\n%s", data)
	}
	if bc, ic := atomic.LoadInt32(busyCalls), atomic.LoadInt32(idleCalls); bc != 0 || ic != 1 {
		t.Errorf("trace fetches busy=%d idle=%d, want 0/1", bc, ic)
	}
}

// TestCollectTraceNoSpans: when the replica holds no spans for the
// trace the client reports it rather than writing an empty file.
func TestCollectTraceNoSpans(t *testing.T) {
	a, _ := traceReplica(t, false, "")
	defer a.Close()
	c := New(Config{BaseURL: a.URL})
	if _, err := c.CollectTrace(context.Background(), "deadbeef"); err == nil {
		t.Fatal("CollectTrace with no spans must error")
	}
	if _, err := c.CollectTrace(context.Background(), ""); err == nil {
		t.Fatal("CollectTrace with an empty ID must error")
	}
}
