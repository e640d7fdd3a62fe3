// Package load is an open-loop traffic generator for one or more
// cdcsd replicas: it offers synthesis submissions at a fixed target
// QPS — arrivals keep coming whether or not earlier requests have
// finished, which is what makes overload measurable — waits on each
// accepted job with a per-request deadline, and distills the run into
// a machine-readable Report (latency percentiles, throughput, shed /
// degrade / error rates, per-replica balance).
//
// Arrivals round-robin across the targets. Each completion is credited
// to the replica that accepted the submission, which is the one that
// ran the job, so the balance section reflects where work ran.
//
// The generator deliberately does not retry shed responses by
// default: a 429 is a measurement, not a failure. Retries can be
// turned on (Attempts > 1) to measure the replicas as a client with
// replica rotation would see them: a shed arrival retries on the next
// target. Counters are published under load/* on the injected obs
// registry.
package load

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

// Spec is one weighted entry in the workload mix.
type Spec struct {
	// Name labels the entry in the report (usually the example name).
	Name string `json:"name"`
	// Body is the POST /v1/synthesize JSON body.
	Body string `json:"-"`
	// Weight is the entry's relative share of arrivals; <=0 means 1.
	Weight int `json:"weight"`
}

// Config tunes one generator run.
type Config struct {
	// Targets are the daemon base URLs. Arrivals round-robin across
	// them, and a retried arrival rotates through them; at least one
	// is required.
	Targets []string
	// QPS is the open-loop arrival rate; must be > 0.
	QPS float64
	// Duration is how long arrivals are offered; must be > 0. The run
	// then waits for in-flight requests to finish or miss Deadline.
	Duration time.Duration
	// Deadline bounds each request end-to-end (submit through
	// terminal state); <=0 means 30s.
	Deadline time.Duration
	// Mix is the weighted workload mix; empty means the default
	// wan/lan/mcm blend.
	Mix []Spec
	// Attempts is the client's MaxAttempts per submission; <=0 means
	// 1 — shed responses are counted, not retried.
	Attempts int
	// Registry receives load/* counters; nil disables.
	Registry *obs.Registry
	// TraceIDs mints a fresh distributed-trace root per arrival, which
	// the client stamps onto the submission as a traceparent header;
	// the report then names the trace IDs of the slowest completed
	// requests as exemplars. Nil disables tracing.
	TraceIDs *obs.IDSource
	// Logger receives per-request warnings; nil disables.
	Logger *slog.Logger
	// HTTP overrides the transport; nil means the client default.
	HTTP *http.Client
}

// DefaultMix is the blend used when Config.Mix is empty: the small
// WAN and LAN access networks plus the MCM system — three distinct
// graph shapes that all finish quickly enough to sustain high QPS.
func DefaultMix() []Spec {
	return []Spec{
		{Name: "wan", Body: `{"example":"wan","options":{"workers":1}}`, Weight: 2},
		{Name: "lan", Body: `{"example":"lan","options":{"workers":1}}`, Weight: 2},
		{Name: "mcm", Body: `{"example":"mcm","options":{"workers":1}}`, Weight: 1},
	}
}

// Latency is the percentile summary of end-to-end request latency
// (submit through terminal job state), in milliseconds.
type Latency struct {
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// Exemplar names one of the slowest completed requests by its
// distributed-trace ID and the replica that ran it, so a tail-latency
// investigation starts from GET <server>/v1/traces/<trace_id> instead
// of from log spelunking.
type Exemplar struct {
	TraceID   string  `json:"trace_id"`
	LatencyMs float64 `json:"latency_ms"`
	Workload  string  `json:"workload"`
	Server    string  `json:"server,omitempty"`
}

// Replica is one server's share of the completed work.
type Replica struct {
	Server    string  `json:"server"`
	Completed int64   `json:"completed"`
	Share     float64 `json:"share"`
}

// Report is the machine-readable run summary.
type Report struct {
	Targets   []string `json:"targets"`
	TargetQPS float64  `json:"target_qps"`
	// DurationSec is the offered-arrival window, not the (longer)
	// wall time including the drain of in-flight requests.
	DurationSec float64 `json:"duration_sec"`

	Offered        int64 `json:"offered"`
	Completed      int64 `json:"completed"`
	Degraded       int64 `json:"degraded"`
	Shed           int64 `json:"shed"`
	Errors         int64 `json:"errors"`
	DeadlineMissed int64 `json:"deadline_missed"`

	// AchievedQPS is completed work over the arrival window.
	AchievedQPS float64 `json:"achieved_qps"`
	ShedRate    float64 `json:"shed_rate"`
	DegradeRate float64 `json:"degrade_rate"`
	ErrorRate   float64 `json:"error_rate"`

	Latency  Latency   `json:"latency"`
	Replicas []Replica `json:"replicas"`
	// Balance is the smallest replica share over the largest — 1.0 is
	// a perfectly even fleet, 0 means some replica served nothing.
	Balance float64 `json:"balance"`

	ByWorkload map[string]int64 `json:"by_workload"`

	// Exemplars are the p99-and-slower completed requests (slowest
	// first, capped), present only when Config.TraceIDs was set.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// collector accumulates per-request outcomes under one mutex; the
// request goroutines are short-lived and the critical sections tiny.
type collector struct {
	mu         sync.Mutex
	latencies  []time.Duration
	samples    []sample
	perReplica map[string]int64
	byWorkload map[string]int64
	completed  int64
	degraded   int64
	shed       int64
	errors     int64
	missed     int64
}

// sample ties one completed request's latency to its trace identity,
// feeding the exemplar selection. Only recorded when tracing is on.
type sample struct {
	latency  time.Duration
	traceID  string
	workload string
	server   string
}

// Run drives one generator run to completion and returns its report.
// Canceling ctx stops new arrivals and abandons the in-flight wait.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Targets) == 0 {
		return nil, errors.New("load: no targets")
	}
	if cfg.QPS <= 0 {
		return nil, fmt.Errorf("load: qps %v must be > 0", cfg.QPS)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("load: duration %v must be > 0", cfg.Duration)
	}
	deadline := cfg.Deadline
	if deadline <= 0 {
		deadline = 30 * time.Second
	}
	attempts := cfg.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = DefaultMix()
	}
	schedule := expandMix(mix)

	// Register every load/* counter up front so a zero-traffic run
	// still exports the full set.
	reg := cfg.Registry
	offeredC := reg.Counter("load/offered")
	completedC := reg.Counter("load/completed")
	degradedC := reg.Counter("load/degraded")
	shedC := reg.Counter("load/shed")
	errorsC := reg.Counter("load/errors")
	missedC := reg.Counter("load/deadline_missed")

	col := &collector{
		perReplica: make(map[string]int64),
		byWorkload: make(map[string]int64),
	}
	interval := time.Duration(float64(time.Second) / cfg.QPS)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.NewTimer(cfg.Duration)
	defer stop.Stop()

	var (
		wg      sync.WaitGroup
		offered int64
	)
arrivals:
	for {
		select {
		case <-ctx.Done():
			break arrivals
		case <-stop.C:
			break arrivals
		case <-ticker.C:
			seq := offered
			offered++
			offeredC.Add(1)
			spec := schedule[int(seq)%len(schedule)]
			target := cfg.Targets[int(seq)%len(cfg.Targets)]
			// A fresh client per arrival, starting at its round-robin
			// target with every target on its ring, so a retry rotates
			// to the next replica. Clients are not shared: a client's
			// ring position moves with its retries and then stays on
			// the replica that accepted its job.
			c := client.New(client.Config{
				BaseURL:     target,
				BaseURLs:    cfg.Targets,
				MaxAttempts: attempts,
				HTTP:        cfg.HTTP,
			})
			// A fresh trace root per arrival: the client stamps it onto
			// the submission as a traceparent header, so the daemon's
			// spans join a trace this run can name in its exemplars.
			var sc obs.SpanContext
			if cfg.TraceIDs != nil {
				sc = cfg.TraceIDs.NewRoot()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				runOne(ctx, c, spec, target, sc, deadline, col, cfg.Logger,
					completedC, degradedC, shedC, errorsC, missedC)
			}()
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return col.report(cfg, offered), nil
}

// expandMix flattens the weighted mix into a repeating schedule, so
// arrival i deterministically maps to a spec.
func expandMix(mix []Spec) []Spec {
	var out []Spec
	for _, s := range mix {
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		for i := 0; i < w; i++ {
			out = append(out, s)
		}
	}
	return out
}

// runOne submits one arrival and waits it to a terminal state within
// the per-request deadline, classifying the outcome.
func runOne(ctx context.Context, c *client.Client, spec Spec,
	target string, sc obs.SpanContext, deadline time.Duration, col *collector, log *slog.Logger,
	completedC, degradedC, shedC, errorsC, missedC *obs.CounterHandle) {
	reqCtx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	reqCtx = obs.ContextWithSpanContext(reqCtx, sc)
	start := time.Now()
	job, err := c.Submit(reqCtx, []byte(spec.Body))
	if err != nil {
		col.mu.Lock()
		defer col.mu.Unlock()
		var se *client.StatusError
		if errors.As(err, &se) && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) {
			col.shed++
			shedC.Add(1)
			return
		}
		if reqCtx.Err() != nil && ctx.Err() == nil {
			col.missed++
			missedC.Add(1)
			return
		}
		col.errors++
		errorsC.Add(1)
		if log != nil {
			log.Warn("submit failed", "target", target, "workload", spec.Name, "error", err.Error())
		}
		return
	}
	// The client stays on the replica that accepted the job, so Wait
	// polls the replica that runs it.
	fin, err := c.Wait(reqCtx, job.ID, 20*time.Millisecond)
	elapsed := time.Since(start)
	col.mu.Lock()
	defer col.mu.Unlock()
	if err != nil {
		if reqCtx.Err() != nil && ctx.Err() == nil {
			col.missed++
			missedC.Add(1)
			return
		}
		col.errors++
		errorsC.Add(1)
		if log != nil {
			log.Warn("wait failed", "server", job.Server, "job_id", job.ID, "error", err.Error())
		}
		return
	}
	if fin.State != "done" {
		col.errors++
		errorsC.Add(1)
		if log != nil {
			log.Warn("job failed", "server", job.Server, "job_id", job.ID, "error", fin.Error)
		}
		return
	}
	col.completed++
	completedC.Add(1)
	col.latencies = append(col.latencies, elapsed)
	col.perReplica[job.Server]++
	col.byWorkload[spec.Name]++
	if sc.Valid() {
		// Prefer the trace ID the daemon reports (the authoritative
		// one if propagation was ever dropped); fall back to the root
		// this run minted.
		tid := fin.TraceID
		if tid == "" {
			tid = job.TraceID
		}
		if tid == "" {
			tid = sc.TraceID.String()
		}
		col.samples = append(col.samples, sample{
			latency: elapsed, traceID: tid, workload: spec.Name, server: job.Server,
		})
	}
	if fin.Admission == "degraded" || job.Admission == "degraded" {
		col.degraded++
		degradedC.Add(1)
	}
}

// report distills the collector into the final Report.
func (col *collector) report(cfg Config, offered int64) *Report {
	col.mu.Lock()
	defer col.mu.Unlock()
	r := &Report{
		Targets:        cfg.Targets,
		TargetQPS:      cfg.QPS,
		DurationSec:    cfg.Duration.Seconds(),
		Offered:        offered,
		Completed:      col.completed,
		Degraded:       col.degraded,
		Shed:           col.shed,
		Errors:         col.errors,
		DeadlineMissed: col.missed,
		ByWorkload:     col.byWorkload,
	}
	if offered > 0 {
		r.ShedRate = float64(col.shed) / float64(offered)
		r.DegradeRate = float64(col.degraded) / float64(offered)
		r.ErrorRate = float64(col.errors) / float64(offered)
	}
	if cfg.Duration > 0 {
		r.AchievedQPS = float64(col.completed) / cfg.Duration.Seconds()
	}
	r.Latency = percentiles(col.latencies)
	servers := make([]string, 0, len(col.perReplica))
	for s := range col.perReplica {
		servers = append(servers, s)
	}
	sort.Strings(servers)
	var minC, maxC int64 = -1, 0
	for _, s := range servers {
		n := col.perReplica[s]
		share := 0.0
		if col.completed > 0 {
			share = float64(n) / float64(col.completed)
		}
		r.Replicas = append(r.Replicas, Replica{Server: s, Completed: n, Share: share})
		if minC < 0 || n < minC {
			minC = n
		}
		if n > maxC {
			maxC = n
		}
	}
	if maxC > 0 {
		r.Balance = float64(minC) / float64(maxC)
	}
	r.Exemplars = exemplars(col.samples, r.Latency.P99)
	return r
}

// maxExemplars caps the report's exemplar list: enough trace IDs to
// chase the tail, few enough to read.
const maxExemplars = 5

// exemplars picks the traced requests at or above the p99 latency,
// slowest first, capped at maxExemplars.
func exemplars(samples []sample, p99ms float64) []Exemplar {
	if len(samples) == 0 {
		return nil
	}
	sorted := append([]sample(nil), samples...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].latency > sorted[j].latency })
	var out []Exemplar
	for _, s := range sorted {
		ms := float64(s.latency) / float64(time.Millisecond)
		if ms < p99ms || len(out) >= maxExemplars {
			break
		}
		out = append(out, Exemplar{
			TraceID:   s.traceID,
			LatencyMs: ms,
			Workload:  s.workload,
			Server:    s.server,
		})
	}
	return out
}

// percentiles computes the nearest-rank latency summary in ms.
func percentiles(lat []time.Duration) Latency {
	if len(lat) == 0 {
		return Latency{}
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return float64(sorted[i]) / float64(time.Millisecond)
	}
	return Latency{
		P50: rank(0.50),
		P90: rank(0.90),
		P99: rank(0.99),
		Max: float64(sorted[len(sorted)-1]) / float64(time.Millisecond),
	}
}
