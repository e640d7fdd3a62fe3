// Package serve is the cdcsd serving layer: a zero-dependency net/http
// front end that runs constraint-driven synthesis as bounded
// concurrent jobs and exposes the live observability plane —
// per-job progress events over SSE (replay of the bounded history,
// then the live tail), the shared metrics registry in Prometheus text
// exposition format 0.0.4 on GET /metrics, health/readiness probes,
// and optional /debug/pprof.
//
// Endpoints:
//
//	POST /v1/synthesize        submit a job (JSON graph+library or a
//	                           built-in example); 202 + job id
//	GET  /v1/jobs              list jobs, oldest first
//	GET  /v1/jobs/{id}         job state + result
//	GET  /v1/jobs/{id}/events  SSE: replayed history, then live tail
//	GET  /v1/jobs/{id}/trace   the job's span forest (deterministic
//	                           JSON, or ?format=chrome for Perfetto)
//	GET  /v1/traces/{traceID}  all spans of a distributed trace from
//	                           the bounded drop-oldest ring
//	GET  /metrics              Prometheus text format 0.0.4
//	GET  /healthz              liveness + version
//	GET  /readyz               readiness (503 while draining)
//	/debug/pprof/...           only with Config.EnablePprof
//
// Each job is one constraint graph. A client with many graphs posts
// each to /v1/synthesize; sending them one traceparent header makes
// their jobs one distributed trace, which GET /v1/traces/{traceID}
// returns whole.
//
// Every job shares one obs.Registry, so /metrics accumulates the
// algorithm counters (ucp_incumbents_total, merging_sets_tested_total,
// …) across the daemon's lifetime; each job carries its own bounded
// obs.Events stream, so SSE subscribers see exactly that job's
// progress. Shutdown reuses the synthesis layer's cooperative
// cancellation: Drain cancels the run context and every in-flight job
// returns its best incumbent as an explicitly degraded result instead
// of being killed.
//
// With Config.DataDir the job table is durable (internal/durable):
// every job writes two fsynced write-ahead log records, its submission
// (before the 202, carrying any job its admission evicted) and its
// terminal result (marked restarted for a re-execution). A job's
// state turns terminal and its event stream closes before the result
// record is appended; the job's concurrency slot waits for the
// append. New replays the log — finished jobs are restored
// queryable with byte-identical results and a synthetic SSE history,
// interrupted jobs are re-queued through the synth pipeline and marked
// restarted. Admission is tiered (shed.go): at the degrade watermark
// new jobs get a tightened timeout budget, at the shed watermark they
// get 429 + Retry-After, and every decision is counted under
// serve/shed/* and logged.
//
// Each job writes one INFO log record, at its terminal state: "job
// done" with its job_id, workload, tier, trace_id, cost, optimal,
// degraded and elapsed_ms, or "job failed" at ERROR. Access lines and
// the submit and start records are DEBUG.
package serve

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// Config tunes the server. The zero value serves with the defaults
// noted on each field.
type Config struct {
	// MaxConcurrent bounds how many synthesis jobs run at once;
	// submissions beyond it queue. <=0 means 2.
	MaxConcurrent int
	// MaxJobs bounds how many jobs are retained in memory (running
	// jobs included; finished jobs are evicted oldest-first to make
	// room). A submission that cannot evict is rejected with 429.
	// <=0 means 64.
	MaxJobs int
	// EnablePprof mounts net/http/pprof under /debug/pprof.
	EnablePprof bool
	// Logger receives the server's structured logs; nil means
	// slog.Default().
	Logger *slog.Logger
	// Version is reported in /healthz and the startup log.
	Version string
	// DataDir enables durable job persistence: the job table is
	// WAL-logged and snapshotted there, and startup replays it —
	// finished jobs are restored for GET /v1/jobs and SSE replay,
	// interrupted ones are re-queued and marked restarted. Empty
	// means in-memory only.
	DataDir string
	// Durable tunes the WAL (snapshot cadence, injected
	// filesystem/clock). Registry and Source are wired by the server.
	Durable durable.Options
	// Shed sets the tiered load-shedding watermarks; the zero value
	// derives them from MaxConcurrent.
	Shed ShedConfig
	// TraceIDs supplies trace/span identifiers for the per-job
	// tracers; nil means a randomly-seeded source. Tests inject a
	// fixed-seed source for deterministic IDs.
	TraceIDs *obs.IDSource
	// TraceRing bounds how many distinct traces are retained for
	// GET /v1/traces/{traceID} (drop-oldest). <=0 means
	// DefaultTraceRing.
	TraceRing int
	// Now is the server's clock (job timestamps, durations); nil
	// means time.Now. Tests inject a frozen clock for deterministic
	// job lifetimes.
	Now func() time.Time
}

// Server is the cdcsd HTTP front end. Build with New, mount Handler,
// and call Drain on shutdown.
type Server struct {
	cfg  Config
	log  *slog.Logger
	reg  *obs.Registry
	mux  *http.ServeMux
	now  func() time.Time
	shed ShedConfig

	// store persists the job table; nil without Config.DataDir.
	store *durable.Store

	// ids hands out trace/span identifiers; traces retains finished
	// span forests for GET /v1/traces/{traceID}.
	ids    *obs.IDSource
	traces *traceRing

	// runCtx parents every job; Drain cancels it so in-flight
	// synthesis degrades to its incumbent and returns promptly.
	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup
	// sem bounds concurrent synthesis: one slot per running job,
	// acquired by the job goroutine, so excess submissions queue.
	sem chan struct{}

	// mu guards the job table below. The durable store must never be
	// called while holding it: store writes take the store's own lock,
	// and the store's snapshot compaction calls back into
	// snapshotTable, which takes s.mu — the persist* helpers run
	// strictly after unlock (restore.go). cdcsvet checks the
	// discipline:
	//
	//cdcsvet:lockorder Server.mu -> durable.Store
	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // insertion order, for listing and eviction
	nextID   int
	active   int // unfinished jobs (queued + running): the shed load
	draining bool
}

// New returns a ready-to-serve Server. With Config.DataDir set it
// opens (or creates) the durable store and replays it — restoring
// finished jobs and re-queuing interrupted ones — before serving;
// only a data directory that cannot be opened fails construction.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		log:       cfg.Logger,
		reg:       obs.NewRegistry(),
		mux:       http.NewServeMux(),
		now:       cfg.Now,
		shed:      cfg.Shed.normalize(cfg.MaxConcurrent),
		runCtx:    ctx,
		cancelRun: cancel,
		jobs:      make(map[string]*Job),
		ids:       cfg.TraceIDs,
		traces:    newTraceRing(cfg.TraceRing),
	}
	if s.ids == nil {
		s.ids = obs.NewIDSource(0)
	}
	s.sem = make(chan struct{}, cfg.MaxConcurrent)
	// Register the admission counters eagerly so /metrics (and the
	// catalog-drift test) always expose the full split.
	for _, tier := range []string{TierAccept, TierDegrade, TierShed} {
		s.reg.Counter("serve/shed/" + tier)
	}
	for _, name := range []string{
		"spans_started", "spans_dropped", "ring_evictions",
		"roots_propagated", "roots_new",
	} {
		s.reg.Counter("trace/" + name)
	}
	s.routes()
	if cfg.DataDir != "" {
		opts := cfg.Durable
		opts.Registry = s.reg
		opts.Logger = s.log
		if opts.Now == nil {
			opts.Now = s.now
		}
		opts.Source = s.snapshotTable
		store, replay, err := durable.Open(cfg.DataDir, opts)
		if err != nil {
			cancel()
			return nil, err
		}
		s.store = store
		s.restore(replay)
	}
	return s, nil
}

// Registry returns the server-wide metrics registry every job
// publishes into — the /metrics scrape target.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the server's root handler with request logging and
// request counting applied.
func (s *Server) Handler() http.Handler {
	return s.logRequests(s.mux)
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/traces/{traceID}", s.handleTraceGet)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// Drain stops accepting jobs, cancels the run context — every
// in-flight synthesis hits its next cooperative checkpoint and returns
// its incumbent as a degraded result — and waits for job goroutines to
// finish or ctx to expire. Call before http.Server.Shutdown so SSE
// streams end (job completion closes their event streams) and the
// HTTP drain does not deadlock on them.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.log.Info("draining", "reason", "shutdown")
	s.cancelRun()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Close the store either way: on a clean drain this compacts the
	// table into the snapshot; on a timed-out drain the WAL keeps the
	// abandoned jobs as unfinished, so the next start re-queues them.
	if s.store != nil {
		if cerr := s.store.Close(); cerr != nil && !errors.Is(cerr, durable.ErrClosed) {
			s.log.Warn("durable store close", "error", cerr.Error())
		}
	}
	return err
}

// Unfinished lists the IDs of jobs not yet in a terminal state —
// what a deadline-bounded drain is about to abandon.
func (s *Server) Unfinished() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			if st := j.State(); st != StateDone && st != StateFailed {
				out = append(out, id)
			}
		}
	}
	return out
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming works through
// the logging middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests counts every request and, at debug level only, writes
// its access line; below debug it wraps nothing and builds no attrs.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer s.reg.Counter("serve/http_requests").Add(1)
		if !s.log.Enabled(r.Context(), slog.LevelDebug) {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", time.Since(start).Milliseconds(),
		}
		if ua := r.Header.Get("User-Agent"); ua != "" {
			attrs = append(attrs, "user_agent", ua)
		}
		if sc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			attrs = append(attrs, "trace_id", sc.TraceID.String())
		}
		s.log.Debug("request", attrs...)
	})
}
