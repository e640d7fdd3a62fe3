// Package client is the cdcs-side HTTP client for one or more cdcsd
// daemons: submit a synthesis job, poll it to completion, and retry
// overload responses the way the daemon asks. The retry loop treats
// 429 and 503 — the shed and drain tiers — plus transport errors as
// retryable: it honors an explicit Retry-After hint when the server
// sends one and otherwise backs off exponentially with equal jitter,
// up to a capped attempt count.
//
// With multiple endpoints configured the client spreads retries
// across the replicas: a transport error (replica down, connection
// refused) rotates to the next endpoint immediately instead of
// sleeping through a backoff the dead replica will never honor, and a
// shed/drain response rotates too — Retry-After is a per-replica
// promise, so trying a different replica right away still honors it.
// Only once every endpoint has refused in a row does the client
// sleep (the largest Retry-After seen on the ring, or the backoff).
// The replica that accepts a submission runs the job and holds its
// trace, and the client stays on it, so Get, Wait and CollectTrace
// ask that replica.
//
// Everything time-shaped (sleeper, jitter) is injectable so the
// backoff schedule is unit-testable without wall-clock waits.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
)

// userAgent identifies this client build on every request
// ("cdcs-client/<version>") so operators can tell client populations
// apart in the daemon's request logs.
var userAgent = "cdcs-client/" + buildinfo.Version()

// Config tunes the client. The zero value (plus a BaseURL) retries 5
// attempts with 100ms base backoff capped at 5s.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8080".
	BaseURL string
	// BaseURLs lists every cdcsd replica; retries rotate through them
	// in order before any backoff sleep. BaseURL, when also set, is
	// tried first. Duplicates collapse after normalization
	// (whitespace and trailing slash stripped).
	BaseURLs []string
	// MaxAttempts bounds tries per request (first attempt included);
	// <=0 means 5.
	MaxAttempts int
	// BaseBackoff is the first retry's nominal delay; doubles per
	// attempt. <=0 means 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the nominal delay. <=0 means 5s.
	MaxBackoff time.Duration
	// Jitter returns a uniform [0,1) sample for equal jitter
	// (delay = nominal/2 + jitter*nominal/2); nil means math/rand.
	Jitter func() float64
	// Sleep waits between attempts; nil means time.Sleep. Tests inject
	// a recorder to assert the schedule.
	Sleep func(time.Duration)
	// HTTP is the transport; nil means a client with a 30s timeout.
	HTTP *http.Client
	// Logger receives retry warnings; nil disables.
	Logger *slog.Logger
}

// Client talks to one cdcsd daemon or a ring of replicas.
type Client struct {
	mu          sync.Mutex // guards cur
	bases       []string   // fixed by New
	cur         int
	maxAttempts int
	baseBackoff time.Duration
	maxBackoff  time.Duration
	jitter      func() float64
	sleep       func(time.Duration)
	http        *http.Client
	log         *slog.Logger
}

// New builds a Client from cfg, resolving defaults.
func New(cfg Config) *Client {
	c := &Client{
		bases:       normalizeBases(cfg.BaseURL, cfg.BaseURLs),
		maxAttempts: cfg.MaxAttempts,
		baseBackoff: cfg.BaseBackoff,
		maxBackoff:  cfg.MaxBackoff,
		jitter:      cfg.Jitter,
		sleep:       cfg.Sleep,
		http:        cfg.HTTP,
		log:         cfg.Logger,
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = 5
	}
	if c.baseBackoff <= 0 {
		c.baseBackoff = 100 * time.Millisecond
	}
	if c.maxBackoff <= 0 {
		c.maxBackoff = 5 * time.Second
	}
	if c.jitter == nil {
		c.jitter = rand.Float64
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	if c.http == nil {
		c.http = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// normalizeBases folds BaseURL and BaseURLs into one ordered, deduped
// endpoint ring. An all-empty config yields the single empty base the
// zero-value client always had (requests then hit bare paths).
func normalizeBases(first string, rest []string) []string {
	var bases []string
	seen := make(map[string]bool)
	for _, raw := range append([]string{first}, rest...) {
		b := strings.TrimSuffix(strings.TrimSpace(raw), "/")
		if b == "" || seen[b] {
			continue
		}
		seen[b] = true
		bases = append(bases, b)
	}
	if len(bases) == 0 {
		bases = []string{""}
	}
	return bases
}

// base returns the endpoint the next request should use.
func (c *Client) base() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bases[c.cur]
}

// rotate advances to the next endpoint in the ring.
func (c *Client) rotate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bases) > 1 {
		c.cur = (c.cur + 1) % len(c.bases)
	}
}

// Job is the daemon's job envelope — the subset of GET /v1/jobs/{id}
// the client consumes; Result stays raw so the CLI can re-emit it
// verbatim as a -report file.
type Job struct {
	ID        string          `json:"id"`
	Workload  string          `json:"workload"`
	State     string          `json:"state"`
	Restarted bool            `json:"restarted,omitempty"`
	Admission string          `json:"admission,omitempty"`
	TraceID   string          `json:"traceId,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	// Server is the endpoint that accepted the submission, where the
	// job runs and its trace lives. Submit sets it; the daemon does
	// not send it.
	Server string `json:"-"`
}

// Terminal reports whether the job reached done or failed.
func (j *Job) Terminal() bool { return j.State == "done" || j.State == "failed" }

// StatusError is a non-2xx daemon response that exhausted retries (or
// was not retryable).
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// retryable reports whether a status is worth another attempt: the
// shed tier (429) and the drain window (503) both carry Retry-After
// and both clear on their own.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// Submit POSTs a synthesis spec and returns the accepted job,
// retrying overload responses per the config. With a multi-endpoint
// ring a failed attempt rotates to the next replica immediately — a
// dead or shedding replica says nothing about its peers — and the
// client only sleeps once every endpoint has refused in a row, using
// the largest Retry-After seen on that pass (or the backoff).
func (c *Client) Submit(ctx context.Context, spec []byte) (*Job, error) {
	var (
		lastErr   error
		ringFails int           // consecutive failures since the last sleep
		ringHint  time.Duration // largest Retry-After this pass over the ring
		backoffs  int           // sleeps taken; drives the exponential
	)
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		base := c.base()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			base+"/v1/synthesize", bytes.NewReader(spec))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		job, retryAfter, err := c.do(req, http.StatusAccepted)
		if err == nil {
			job.Server = base
			return job, nil
		}
		lastErr = err
		var se *StatusError
		if errors.As(err, &se) && !retryable(se.Code) {
			return nil, err
		}
		if attempt+1 >= c.maxAttempts {
			break
		}
		ringFails++
		if retryAfter > ringHint {
			ringHint = retryAfter
		}
		c.rotate()
		if ringFails < len(c.bases) {
			// Another replica is untried this pass: move on without
			// sleeping. The Retry-After (if any) binds only the
			// replica that sent it, and a refused connection deserves
			// no backoff at all.
			if c.log != nil {
				c.log.Warn("submit rotating to next endpoint",
					"attempt", attempt+1, "endpoint", base, "next", c.base(), "error", err.Error())
			}
			continue
		}
		delay := c.backoff(backoffs, ringHint)
		backoffs++
		ringFails, ringHint = 0, 0
		if c.log != nil {
			c.log.Warn("submit retry", "attempt", attempt+1, "delay", delay.String(), "error", err.Error())
		}
		c.sleep(delay)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("submit failed after %d attempts: %w", c.maxAttempts, lastErr)
}

// Get fetches a job's current state from the current endpoint: after
// Submit, the replica that accepted the job.
func (c *Client) Get(ctx context.Context, id string) (*Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base()+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	job, _, err := c.do(req, http.StatusOK)
	return job, err
}

// Wait polls the job every poll interval (via the injected sleeper)
// until it reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*Job, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		job, err := c.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.Terminal() {
			return job, nil
		}
		c.sleep(poll)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// do runs one request and decodes the job envelope on the expected
// status; otherwise it returns a StatusError plus any Retry-After
// hint the response carried.
func (c *Client) do(req *http.Request, wantStatus int) (*Job, time.Duration, error) {
	c.stamp(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != wantStatus {
		return nil, parseRetryAfter(resp.Header.Get("Retry-After")),
			&StatusError{Code: resp.StatusCode, Body: string(body)}
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		return nil, 0, fmt.Errorf("decode job envelope: %w", err)
	}
	return &job, 0, nil
}

// stamp sets the headers every request carries: the client
// User-Agent, and — when the request context carries a span context
// (obs.ContextWithSpanContext, or a live traced span) — the W3C
// traceparent that makes the daemon's spans children of the caller's
// trace.
func (c *Client) stamp(req *http.Request) {
	req.Header.Set("User-Agent", userAgent)
	if sc := obs.SpanContextFromContext(req.Context()); sc.Valid() {
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
}

// backoff computes the delay before retry number attempt+1: an
// explicit server hint verbatim, otherwise capped exponential with
// equal jitter so synchronized clients fan out.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	d := c.baseBackoff << attempt
	if d > c.maxBackoff || d <= 0 { // <=0: shift overflow
		d = c.maxBackoff
	}
	return d/2 + time.Duration(c.jitter()*float64(d/2))
}

// parseRetryAfter reads the whole-seconds Retry-After form the daemon
// emits; anything else (dates, garbage, absence) means no hint.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
