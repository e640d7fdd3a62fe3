package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// jsonKeys returns the top-level keys of one JSON object in their
// textual order of appearance.
func jsonKeys(t *testing.T, line []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('{') {
		t.Fatalf("log line is not a JSON object: %s", line)
	}
	var keys []string
	depth := 0
	expectKey := true
	for dec.More() || depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' || v == '[' {
				depth++
			} else {
				depth--
			}
			expectKey = depth == 0
		default:
			if depth == 0 {
				if expectKey {
					keys = append(keys, v.(string))
					expectKey = false
				} else {
					expectKey = true
				}
			}
		}
	}
	return keys
}

// TestJSONLoggerKeyOrderDeterministic pins the daemon log line shape:
// time, level, msg first, then the attrs in exactly the order the call
// site emitted them — the order log-processing pipelines key on.
func TestJSONLoggerKeyOrderDeterministic(t *testing.T) {
	want := []string{"time", "level", "msg", "job_id", "workload", "cost", "optimal"}
	for run := 0; run < 3; run++ {
		var buf bytes.Buffer
		log := NewLogger(&buf, slog.LevelInfo, true)
		log.Info("job done", "job_id", "j-000001", "workload", "wan", "cost", 464.55, "optimal", true)
		keys := jsonKeys(t, buf.Bytes())
		if strings.Join(keys, ",") != strings.Join(want, ",") {
			t.Fatalf("run %d: key order %v, want %v", run, keys, want)
		}
	}
}

func TestJSONLoggerWithGroupAttrs(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelInfo, true).With("job_id", "j-000002")
	log.Info("job started", "channels", 8)
	keys := jsonKeys(t, buf.Bytes())
	want := []string{"time", "level", "msg", "job_id", "channels"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("key order %v, want %v", keys, want)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelWarn, true)
	log.Info("hidden")
	log.Warn("shown")
	lines := strings.Count(buf.String(), "\n")
	if lines != 1 || !strings.Contains(buf.String(), "shown") {
		t.Fatalf("want exactly the warn line, got: %s", buf.String())
	}
}

func TestTextLoggerForTerminals(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelInfo, false)
	log.Info("trace written", "path", "t.json")
	line := buf.String()
	if json.Valid([]byte(strings.TrimSpace(line))) {
		t.Fatalf("text format must not be JSON: %s", line)
	}
	if m, _ := regexp.MatchString(`msg="trace written" path=t\.json`, line); !m {
		t.Fatalf("unexpected text line: %s", line)
	}
}

// lockedBuffer is a log sink that tests read after the writers stop.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// logRecord is one parsed JSON log line with its key order.
type logRecord struct {
	keys  []string
	attrs map[string]any
}

// loggedJob runs one job through a server that logs JSON at level, the
// way a client does: POST with a traceparent, the SSE stream read to
// its end, then GET, each request carrying the traceparent. It returns
// the job and every record the server wrote, read once every handler
// and the job goroutine have returned.
func loggedJob(t *testing.T, level slog.Level, body string) (jobJSON, []logRecord) {
	t.Helper()
	var buf lockedBuffer
	srv, err := New(Config{Logger: NewLogger(&buf, level, true)})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tp := obs.NewIDSource(7).NewRoot().Traceparent()
	do := func(method, path, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceparentHeader, tp)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := do(http.MethodPost, "/v1/synthesize", body)
	var j jobJSON
	err = json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, err)
	}
	for _, path := range []string{j.Links.Events, j.Links.Self} {
		resp := do(http.MethodGet, path, "")
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	ts.Close() // waits for every handler, so every access line is written
	<-srv.getJob(j.ID).Done()

	buf.mu.Lock()
	defer buf.mu.Unlock()
	var recs []logRecord
	for _, line := range bytes.Split(bytes.TrimSpace(buf.buf.Bytes()), []byte("\n")) {
		rec := logRecord{keys: jsonKeys(t, line)}
		if err := json.Unmarshal(line, &rec.attrs); err != nil {
			t.Fatalf("log line %s: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return j, recs
}

// TestOneInfoRecordPerJob pins the daemon's per-job logging: a job
// that finishes writes exactly one INFO record, job done, with its
// attrs in a fixed order; the access lines, job submitted and job
// started are DEBUG records, each carrying the job's trace_id; a job
// that fails writes one ERROR record, job failed.
func TestOneInfoRecordPerJob(t *testing.T) {
	const wan = `{"example":"wan","options":{"workers":1}}`
	t.Run("info", func(t *testing.T) {
		j, recs := loggedJob(t, slog.LevelInfo, wan)
		if len(recs) != 1 {
			t.Fatalf("a finished job wrote %d records at INFO, want 1: %v", len(recs), recs)
		}
		rec := recs[0]
		want := "time,level,msg,job_id,workload,tier,trace_id,cost,optimal,degraded,elapsed_ms"
		if got := strings.Join(rec.keys, ","); got != want {
			t.Errorf("job done keys = %s, want %s", got, want)
		}
		for k, v := range map[string]any{
			"level": "INFO", "msg": "job done", "job_id": j.ID, "workload": "wan",
			"tier": TierAccept, "trace_id": j.TraceID, "optimal": true, "degraded": false,
		} {
			if rec.attrs[k] != v {
				t.Errorf("job done %s = %v, want %v", k, rec.attrs[k], v)
			}
		}
	})
	t.Run("debug", func(t *testing.T) {
		j, recs := loggedJob(t, slog.LevelDebug, wan)
		counts := map[string]int{}
		for _, rec := range recs {
			counts[fmt.Sprint(rec.attrs["level"], " ", rec.attrs["msg"])]++
			if rec.attrs["trace_id"] != j.TraceID {
				t.Errorf("%s record trace_id = %v, want %s", rec.attrs["msg"], rec.attrs["trace_id"], j.TraceID)
			}
		}
		want := map[string]int{"DEBUG request": 3, "DEBUG job submitted": 1, "DEBUG job started": 1, "INFO job done": 1}
		if fmt.Sprint(counts) != fmt.Sprint(want) {
			t.Errorf("records at DEBUG = %v, want %v", counts, want)
		}
	})
	t.Run("failed", func(t *testing.T) {
		j, recs := loggedJob(t, slog.LevelInfo, fmt.Sprintf(`{"graph":%s,"library":%s}`, infeasibleGraph, infeasibleLibrary))
		if len(recs) != 1 || recs[0].attrs["level"] != "ERROR" || recs[0].attrs["msg"] != "job failed" {
			t.Fatalf("a failed job wrote %v at INFO, want one ERROR job failed record", recs)
		}
		if recs[0].attrs["job_id"] != j.ID || recs[0].attrs["trace_id"] != j.TraceID {
			t.Errorf("job failed record = %v, want job_id %s and trace_id %s", recs[0].attrs, j.ID, j.TraceID)
		}
	})
}
