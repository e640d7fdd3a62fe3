package serve

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/load"
)

// TestMetricCatalogMatchesDocs cross-checks the metric names the code
// registers against the catalog in docs/OBSERVABILITY.md, in both
// directions: an undocumented metric and a documented-but-gone metric
// both fail. It drives one server through a successful wan job, a
// failing job and a rejected submission so every serve/* counter is
// genuinely registered by its real code path — with a data dir, so
// the durable/wal/* instruments are registered by a real store too —
// then snapshots the shared registry (which a full exact run
// populates with every algorithm counter). The cdcs-load generator's
// load/* counters share the catalog, so a tiny load.Run against the
// same server publishes them into the same registry first.
func TestMetricCatalogMatchesDocs(t *testing.T) {
	// The first job parks in the start hook until the rejection path
	// has been exercised, so the one-slot table is full however fast
	// synthesis is.
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	setTestJobStartHook(func(j *Job) { <-release })
	defer setTestJobStartHook(nil)

	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxJobs: 1, DataDir: t.TempDir()})

	// Success path: registers all merging/synth/ucp/p2p counters plus
	// the serve submission/completion/duration instruments.
	j, code := submit(t, ts, `{"example":"wan","options":{"workers":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	// Rejection path (table of one unfinished job): serve/jobs_rejected.
	if _, code = submit(t, ts, `{"example":"wan"}`); code != http.StatusTooManyRequests {
		t.Fatalf("submit to a full one-slot job table: status = %d, want 429", code)
	}
	releaseAll()
	waitJob(t, ts, j.ID)
	// Failure path: serve/jobs_failed.
	fj, code := submit(t, ts, fmt.Sprintf(`{"graph":%s,"library":%s}`, infeasibleGraph, infeasibleLibrary))
	if code != http.StatusAccepted {
		t.Fatalf("failing submit status = %d", code)
	}
	waitJob(t, ts, fj.ID)

	// Load-generator path: one tiny burst registers every load/*
	// counter in the shared registry. Values are irrelevant here —
	// only the registered names are cross-checked.
	loadCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := load.Run(loadCtx, load.Config{
		Targets:  []string{ts.URL},
		QPS:      20,
		Duration: 100 * time.Millisecond,
		Deadline: 20 * time.Second,
		Registry: srv.Registry(),
	}); err != nil {
		t.Fatalf("load.Run: %v", err)
	}

	registered := make(map[string]bool)
	snap := srv.Registry().Snapshot()
	perArity := regexp.MustCompile(`/k\d+$`)
	for _, c := range snap.Counters {
		registered[perArity.ReplaceAllString(c.Name, "/k<k>")] = true
	}
	for _, g := range snap.Gauges {
		registered[g.Name] = true
	}
	for _, h := range snap.Histograms {
		registered[h.Name] = true
	}

	documented := docMetricNames(t)

	for name := range registered {
		if !documented[name] {
			t.Errorf("metric %q is registered in code but missing from the docs/OBSERVABILITY.md catalog", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("metric %q is documented in docs/OBSERVABILITY.md but never registered by this full serve scenario — stale docs or dead metric", name)
		}
	}
}

// docMetricNames extracts every metric name from the "## Metric
// catalog" section of docs/OBSERVABILITY.md: backticked tokens that
// look like registry names (lowercase path with a '/'), excluding
// prefix mentions that end in a slash, like `serve/shed/`.
func docMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("read docs: %v", err)
	}
	text := string(data)
	start := strings.Index(text, "## Metric catalog")
	if start < 0 {
		t.Fatal("docs/OBSERVABILITY.md has no \"## Metric catalog\" section")
	}
	section := text[start:]
	// The catalog ends at the next same-level heading.
	if end := strings.Index(section[2:], "\n## "); end >= 0 {
		section = section[:end+2]
	}
	nameRe := regexp.MustCompile("`([a-z0-9_]+(?:/[a-z0-9_<>]+)+)`")
	out := make(map[string]bool)
	for _, m := range nameRe.FindAllStringSubmatch(section, -1) {
		out[m[1]] = true
	}
	if len(out) == 0 {
		t.Fatal("no metric names parsed from the catalog section")
	}
	return out
}
