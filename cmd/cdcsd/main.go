// cdcsd is the constraint-driven communication synthesis daemon: it
// serves synthesis as bounded concurrent HTTP jobs with a live
// observability plane — per-job progress events over SSE, accumulated
// algorithm counters in Prometheus text format on /metrics, health
// probes, structured JSON logs, and optional /debug/pprof.
//
// Usage:
//
//	cdcsd [-addr :8080] [-max-jobs 2] [-retain 64]
//	      [-data-dir DIR] [-snapshot-every 1024]
//	      [-shed-watermarks degrade:shed] [-degraded-timeout 2s]
//	      [-trace-ring 256] [-drain-timeout 10s] [-pprof]
//	      [-log-level info] [-version]
//
// A job walkthrough:
//
//	curl -s -X POST localhost:8080/v1/synthesize -d '{"example":"wan"}'
//	curl -s localhost:8080/v1/jobs/j-000001
//	curl -sN localhost:8080/v1/jobs/j-000001/events     # SSE replay + tail
//	curl -s localhost:8080/metrics | grep ucp_incumbents_total
//
// A request names a built-in example or carries a graph and library;
// its only options are workers and timeoutMs, as in
// {"example":"wan","options":{"workers":1,"timeoutMs":500}}. Every job
// runs the exact flow through cdcs.SynthesizeContext, and a body with
// any other field is refused with 400.
//
// With -data-dir the job table is durable: each job's submission and
// terminal result are WAL-logged as two fsynced records (and
// periodically compacted into a snapshot), so a 202 means the
// submission is on disk, and a restart — graceful or kill -9 —
// replays it. A job's SSE stream ends when it finishes, before its
// result record is synced: a kill in that window re-runs the job on
// restart, marked "restarted".
// Finished jobs come back queryable with their exact results;
// interrupted jobs are re-queued through the synth pipeline and
// marked "restarted". Overload is handled in tiers: beyond the
// degrade watermark jobs are admitted with a tightened timeout budget
// (the anytime solver returns its best incumbent at the cap), beyond
// the shed watermark submissions get 429 + Retry-After.
//
// Shutdown (SIGINT/SIGTERM) drains gracefully: new submissions get
// 503, in-flight jobs are canceled cooperatively and finish with their
// best incumbent as an explicitly degraded result, then the listener
// closes. The drain is bounded by -drain-timeout; jobs still
// unfinished at the deadline are logged as abandoned (with -data-dir
// they are re-queued on the next start). Logs are JSON on stderr: at
// the default -log-level info, one record per job at its end ("job
// done", or "job failed" at error) plus warnings; -log-level debug
// adds an access line per request and each job's submit and start.
// See docs/OBSERVABILITY.md for the endpoint, event and log reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/durable"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxJobs := flag.Int("max-jobs", 2, "synthesis jobs running concurrently (excess submissions queue)")
	retain := flag.Int("retain", 64, "jobs retained in memory (finished jobs evicted oldest-first)")
	enablePprof := flag.Bool("pprof", false, "mount /debug/pprof (CPU, heap, goroutine profiles)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight jobs to return their degraded results; jobs still unfinished at the deadline are abandoned (and re-queued on the next start with -data-dir)")
	dataDir := flag.String("data-dir", "", "durable job-table directory (WAL + snapshots); a restart replays it — finished jobs restored, interrupted jobs re-queued. Empty = in-memory only")
	snapshotEvery := flag.Int("snapshot-every", 1024, "WAL records between snapshot compactions")
	shedWatermarks := flag.String("shed-watermarks", "", "tiered admission watermarks as degrade:shed unfinished-job loads (default 2*max-jobs:4*max-jobs)")
	degradedTimeout := flag.Duration("degraded-timeout", 2*time.Second, "per-job budget cap applied in the degraded admission tier")
	traceRing := flag.Int("trace-ring", 0, "finished distributed traces retained for GET /v1/traces/{traceID} (oldest evicted first); 0 = default")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.String("cdcsd"))
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "cdcsd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	log := serve.NewLogger(os.Stderr, level, true)

	var shed serve.ShedConfig
	if *shedWatermarks != "" {
		if _, err := fmt.Sscanf(*shedWatermarks, "%d:%d", &shed.DegradeAt, &shed.ShedAt); err != nil {
			fmt.Fprintf(os.Stderr, "cdcsd: bad -shed-watermarks %q (want degrade:shed, e.g. 8:32): %v\n", *shedWatermarks, err)
			os.Exit(2)
		}
	}
	shed.DegradedTimeout = *degradedTimeout

	version := buildinfo.Version()
	srv, err := serve.New(serve.Config{
		MaxConcurrent: *maxJobs,
		MaxJobs:       *retain,
		EnablePprof:   *enablePprof,
		Logger:        log,
		Version:       version,
		DataDir:       *dataDir,
		Durable:       durable.Options{SnapshotEvery: *snapshotEvery},
		Shed:          shed,
		TraceRing:     *traceRing,
	})
	if err != nil {
		log.Error("startup failed", "error", err.Error())
		os.Exit(1)
	}

	// Listen before logging "ready" so /readyz can only succeed once
	// connections are actually being accepted.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "error", err.Error())
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	log.Info("cdcsd starting",
		"version", version,
		"addr", ln.Addr().String(),
		"max_jobs", *maxJobs,
		"retain", *retain,
		"data_dir", *dataDir,
		"pprof", *enablePprof,
	)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Error("serve failed", "error", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: mark unready and cancel in-flight jobs first —
	// they return their incumbents as degraded results and their SSE
	// streams close — then shut the HTTP layer down.
	log.Info("shutdown signal received")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		// The bounded drain expired with work still in flight: name
		// every abandoned job. With -data-dir they are re-queued on
		// the next start; without it they are simply lost.
		abandoned := srv.Unfinished()
		log.Warn("drain incomplete; abandoning jobs at the deadline",
			"error", err.Error(),
			"abandoned", len(abandoned),
			"job_ids", fmt.Sprint(abandoned),
		)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "error", err.Error())
	}
	log.Info("cdcsd stopped")
}
