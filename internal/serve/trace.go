package serve

import (
	"net/http"
	"sync"

	"repro/internal/obs"
)

// DefaultTraceRing is how many distinct traces the server retains for
// GET /v1/traces/{traceID} when Config.TraceRing is zero.
const DefaultTraceRing = 256

// traceRing retains the span forests of finished jobs keyed by trace
// ID, bounded and drop-oldest: when a new trace would exceed the cap,
// the oldest retained trace is evicted whole. Forests recorded for an
// already-retained trace merge into its entry, so jobs submitted with
// one traceparent read back as one trace.
type traceRing struct {
	mu    sync.Mutex
	cap   int
	order []string
	byID  map[string][]*obs.Span
}

func newTraceRing(cap int) *traceRing {
	if cap <= 0 {
		cap = DefaultTraceRing
	}
	return &traceRing{cap: cap, byID: make(map[string][]*obs.Span)}
}

// add records a forest under traceID, returning how many whole traces
// were evicted and how many spans they held (the ring-eviction and
// span-drop counters).
func (rg *traceRing) add(traceID string, roots []*obs.Span) (evictedTraces, evictedSpans int) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if _, ok := rg.byID[traceID]; !ok {
		for len(rg.order) >= rg.cap {
			oldest := rg.order[0]
			rg.order = rg.order[1:]
			evictedTraces++
			evictedSpans += countSpans(rg.byID[oldest])
			delete(rg.byID, oldest)
		}
		rg.order = append(rg.order, traceID)
	}
	rg.byID[traceID] = append(rg.byID[traceID], roots...)
	return evictedTraces, evictedSpans
}

// get returns the retained forest for traceID (nil when unknown).
func (rg *traceRing) get(traceID string) []*obs.Span {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.byID[traceID]
}

func countSpans(roots []*obs.Span) int {
	n := 0
	for _, sp := range roots {
		n += 1 + countSpans(sp.Children)
	}
	return n
}

// recordTrace publishes a finished span forest into the trace ring and
// bumps the trace/* counters. Safe with an empty forest or ID (no-op).
func (s *Server) recordTrace(traceID string, roots []*obs.Span) {
	if traceID == "" || len(roots) == 0 {
		return
	}
	s.reg.Counter("trace/spans_started").Add(int64(countSpans(roots)))
	evictedTraces, evictedSpans := s.traces.add(traceID, roots)
	if evictedTraces > 0 {
		s.reg.Counter("trace/ring_evictions").Add(int64(evictedTraces))
		s.reg.Counter("trace/spans_dropped").Add(int64(evictedSpans))
	}
}

// jobTraceJSON is the GET /v1/jobs/{id}/trace shape.
type jobTraceJSON struct {
	ID      string      `json:"id"`
	TraceID string      `json:"traceId,omitempty"`
	Spans   []*obs.Span `json:"spans"`
}

// handleJobTrace serves the job's span forest: the per-job tracer's
// live view (complete once the job is terminal), as deterministic
// indented JSON or, with ?format=chrome, as a Perfetto-loadable
// trace_event array.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	spans := j.tracer.Roots()
	if spans == nil {
		spans = []*obs.Span{}
	}
	if r.URL.Query().Get("format") == "chrome" {
		data, err := obs.ChromeExport("", spans)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "encode trace: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
		return
	}
	writeJSON(w, http.StatusOK, jobTraceJSON{ID: j.ID, TraceID: j.traceID, Spans: spans})
}

// traceJSON is the GET /v1/traces/{traceID} shape: every span the
// server retained for the trace (client.CollectTrace reads it).
type traceJSON struct {
	TraceID string      `json:"traceId"`
	Spans   []*obs.Span `json:"spans"`
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("traceID")
	spans := s.traces.get(id)
	if spans == nil {
		httpError(w, http.StatusNotFound, "no local spans for trace %q", id)
		return
	}
	writeJSON(w, http.StatusOK, traceJSON{TraceID: id, Spans: spans})
}
