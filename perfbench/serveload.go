package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/cdcs"
)

// daemon is one cdcsd child process started with its shipped defaults
// (-max-jobs 2, -retain 64, -fsync-every 1, tracing on) plus a data
// directory, its logs discarded.
type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan struct{} // closed once the process has been reaped
}

func startDaemon(bin, dataRoot string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dir, err := os.MkdirTemp(dataRoot, "cdcsd-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dir)
	// The daemon dies with the benchmark even if the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start cdcsd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dir: dir, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// waitReady polls /readyz until the daemon answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if d.exited() {
			return fmt.Errorf("cdcsd exited during start-up: %v", d.cmd.ProcessState)
		}
		if resp, err := c.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("cdcsd not ready after %v", timeout)
}

// stop drains the daemon with SIGTERM, kills it if the drain overruns,
// waits for it to exit and removes its data directory.
func (d *daemon) stop() {
	if !d.exited() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	os.RemoveAll(d.dir)
}

// kill ends the daemon at once, as a crash would.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// cpu is the daemon's user+sys CPU so far; after it exits, the total
// the kernel reported when reaping it.
func (d *daemon) cpu() (time.Duration, error) {
	if !d.exited() {
		if t, err := procCPU(d.cmd.Process.Pid); err == nil {
			return t, nil
		}
		<-d.done // it exited between the two checks
	}
	ps := d.cmd.ProcessState
	return ps.UserTime() + ps.SystemTime(), nil
}

// peakRSSMB is the daemon's peak resident set in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	if !d.exited() {
		if mb, err := peakRSSMB(d.cmd.Process.Pid); err == nil {
			return mb, nil
		}
		<-d.done
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for exited cdcsd")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// metrics scrapes /metrics into a map from Prometheus series name to
// value.
func (d *daemon) metrics() (map[string]int64, error) {
	resp, err := (&http.Client{Timeout: opDeadline}).Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// promCounter is the exposition name cdcsd gives a registry counter:
// every character outside [a-zA-Z0-9_:] becomes '_', plus "_total".
func promCounter(name string) string {
	b := []byte(name)
	for i, c := range b {
		if !(c == '_' || c == ':' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			b[i] = '_'
		}
	}
	return strings.TrimSuffix(string(b), "_total") + "_total"
}

// serveCounters are the registry counters a traced serve run reads
// from /metrics, by the names the in-process Observer uses.
var serveCounters = []string{
	"synth/price/pricings", "synth/priced_mergings",
	"p2p/cache/hits", "p2p/cache/misses", "p2p/cache/entries",
	"merging/candidates", "merging/sets_tested", "ucp/nodes",
	"serve/http_requests", "trace/spans_started",
	"durable/wal/records", "durable/wal/fsyncs", "durable/wal/snapshots",
}

// counterDelta re-keys the growth of each serve counter between two
// scrapes by registry name, leaving out counters the daemon does not
// export.
func counterDelta(a, b map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for _, name := range serveCounters {
		if v, ok := b[promCounter(name)]; ok {
			out[name] = v - a[promCounter(name)]
		}
	}
	return out
}

// caller is one closed-loop client on its own keep-alive connection.
type caller struct {
	c    *http.Client
	base string
}

func newCaller(base string) *caller {
	return &caller{base: base, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *caller) close() { c.c.CloseIdleConnections() }

// do sends one request and returns the body of a response with the
// wanted status.
func (c *caller) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	switch {
	case resp.StatusCode == want:
		return b, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return nil, fmt.Errorf("%s %s: shed with %s", method, path, resp.Status)
	}
	return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
}

// serveOp is what one op learned beyond pass/fail.
type serveOp struct {
	jobID    string
	sseBytes int
	// spans of the traced op: the op and its three calls.
	root, submit, events, get *span
}

// op runs one job through the public API: POST it, wait for its SSE
// stream to close, GET the result and gate it.
func (c *caller) op(body []byte, i int, g *gate, rec *recorder) (serveOp, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	var so serveOp
	step := func(name string) *span {
		if rec == nil {
			return nil
		}
		return rec.open(name)
	}
	end := func(sp *span) {
		if sp != nil {
			rec.close(sp, so.root)
		}
	}

	so.root = step("op")
	so.submit = step("POST /v1/synthesize")
	b, err := c.do(ctx, http.MethodPost, "/v1/synthesize", body, http.StatusAccepted)
	end(so.submit)
	if err != nil {
		return so, err
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &job); err != nil || job.ID == "" {
		return so, fmt.Errorf("POST /v1/synthesize: no job id in %q", b)
	}
	so.jobID = job.ID

	so.events = step("GET /v1/jobs/{id}/events")
	b, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil, http.StatusOK)
	end(so.events)
	if err != nil {
		return so, err
	}
	so.sseBytes = len(b)

	so.get = step("GET /v1/jobs/{id}")
	b, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+job.ID, nil, http.StatusOK)
	end(so.get)
	if rec != nil {
		rec.close(so.root, nil)
	}
	if err != nil {
		return so, err
	}
	var view struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Cost     float64 `json:"cost"`
			Optimal  bool    `json:"optimal"`
			Degraded bool    `json:"degraded"`
		} `json:"result"`
	}
	if err := json.Unmarshal(b, &view); err != nil {
		return so, fmt.Errorf("decode job %s: %w", job.ID, err)
	}
	if view.State != "done" || view.Result == nil {
		return so, fmt.Errorf("job %s ended %s: %s", job.ID, view.State, view.Error)
	}
	return so, g.check(i, view.Result.Optimal, view.Result.Degraded, view.Result.Cost)
}

// trace fetches a finished job's span forest.
func (c *caller) trace(jobID string) ([]*cdcs.TraceSpan, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	b, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/trace", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var t struct {
		Spans []*cdcs.TraceSpan `json:"spans"`
	}
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("decode trace of %s: %w", jobID, err)
	}
	return t.Spans, nil
}

// phase is what one closed-loop stretch of a serve run measured.
type phase struct {
	lat      []float64 // ms per op that passed the gate
	ops      int       // ops attempted, failed ones included
	sseBytes int
	refWall  time.Duration // reference slices and null ops between ops
}

// tracedPhase collects a traced stretch's spans: the benchmark's own
// per op, summed by call, and the daemon's, fetched after each op.
type tracedPhase struct {
	rec                         *recorder
	acc                         *layerAcc
	submit, events, result, all time.Duration
}

// run drives the caller in a closed loop over the pool until the pass
// boundary nearest until, tallying every op in out. With tr set,
// every op is traced and its server-side spans are fetched after its
// latency is taken. Between ops it runs the reference kernel and null
// ops.
func (c *caller) run(bodies [][]byte, g *gate, out *outcome, until time.Time, tr *tracedPhase, host *hostSpeed, null *nullOps) (*phase, error) {
	ph := &phase{}
	var rec *recorder
	if tr != nil {
		rec = tr.rec
	}
	for n, clock := 0, newPassClock(len(bodies), until); clock.more(n); n++ {
		i := n % len(bodies)
		t0 := time.Now()
		so, err := c.op(bodies[i], i, g, rec)
		lat := ms(time.Since(t0))
		var spans []*cdcs.TraceSpan
		if tr != nil && err == nil {
			spans, err = c.trace(so.jobID)
		}
		out.record(err)
		ph.ops++
		ph.sseBytes += so.sseBytes
		if err == nil {
			ph.lat = append(ph.lat, lat)
		}
		if tr != nil && err == nil {
			graft(so.root, spans, pidDaemon, so.submit.Start)
			tr.rec.add(so.root)
			tr.acc.addSpans(spans)
			tr.acc.spanOps++
			tr.submit += so.submit.Dur
			tr.events += so.events.Dur
			tr.result += so.get.Dur
			tr.all += so.root.Dur
		}
		if errors.Is(err, syscall.ECONNREFUSED) {
			// A dead daemon fails every op at once; pace the count
			// instead of spinning.
			time.Sleep(10 * time.Millisecond)
		}
		d, err := host.maybeSlice()
		if err != nil {
			return nil, err
		}
		dn, err := null.maybeRun()
		if err != nil {
			return nil, err
		}
		ph.refWall += d + dn
	}
	return ph, nil
}

// runServe drives serve-small: a cdcsd child process and one caller in
// a closed loop, each op one job submitted, awaited over SSE and
// fetched. One caller keeps a 2-CPU host at about half load. Two
// callers against the daemon's two job slots put it at about 80%,
// where any CPU the hypervisor steals turns into queueing: in
// alternating runs on one seed, two callers gave a 1.8x higher p90
// that varied 2.5 times as much between runs.
func runServe(cfg runConfig, pool []instance, g *gate) (*outcome, error) {
	out := newOutcome()
	host := newHostSpeed()
	bodies := make([][]byte, len(pool))
	for i, in := range pool {
		b, err := json.Marshal(map[string]any{"graph": in.Graph, "library": in.Library, "workload": "serve-small"})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	dataRoot := cfg.dataRoot()
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	out.diag["data_dir_fs"] = fsType(dataRoot)
	null, err := startNullOps(dataRoot)
	if err != nil {
		return nil, err
	}
	defer null.stop()

	// Set-up: start the daemon until /readyz answers, then one warm-up
	// op. All but the last daemon are stopped again.
	var (
		d      *daemon
		c      *caller
		setups = make([]float64, setupReps)
	)
	defer func() {
		if c != nil {
			c.close()
		}
		if d != nil {
			d.stop()
		}
	}()
	for rep := range setups {
		if d != nil {
			c.close()
			d.stop()
		}
		if err := host.slice(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg.cdcsd, dataRoot); err != nil {
			return nil, err
		}
		if err := d.waitReady(30 * time.Second); err != nil {
			return nil, err
		}
		c = newCaller(d.base)
		_, err = c.op(bodies[0], 0, g, nil)
		out.record(err)
		setups[rep] = time.Since(t0).Seconds()
	}
	out.setup(setups)

	if cfg.killAfter > 0 {
		go func(d *daemon) {
			time.Sleep(cfg.killAfter)
			d.kill()
		}(d)
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	refCPU0 := host.cpu
	client0, host0 := selfCPU(), readCPUTimes()
	start := time.Now()
	if !cfg.trace {
		ph, err := c.run(bodies, g, out, start.Add(cfg.seconds), nil, host, null)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start) - ph.refWall
		cpu1, err := d.cpu()
		if err != nil {
			return nil, err
		}
		rss, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		self := selfCPU() - client0
		hostShares(out.diag, host0, readCPUTimes(), self+cpu1-cpu0)
		client := self - (host.cpu - refCPU0)
		out.diag["client_cpu_ms_per_op"] = ms(client) / float64(max(ph.ops, 1))
		out.endToEnd(ph.lat, elapsed, cpu1-cpu0, rss, host, null)
		return out, nil
	}

	// Traced run: an untraced half, whose /metrics deltas give the
	// program's own per-op counts, then a traced half whose ops also
	// fetch their server-side trace.
	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	u, err := c.run(bodies, g, out, start.Add(cfg.seconds/2), nil, host, null)
	if err != nil {
		return nil, err
	}
	clientU := selfCPU() - client0 - (host.cpu - refCPU0)
	m1, err := d.metrics()
	if err != nil {
		return nil, err
	}
	tr := &tracedPhase{rec: newRecorder(), acc: newLayerAcc()}
	t, err := c.run(bodies, g, out, start.Add(cfg.seconds), tr, host, null)
	if err != nil {
		return nil, err
	}
	if cpu1, err := d.cpu(); err == nil {
		hostShares(out.diag, host0, readCPUTimes(), selfCPU()-client0+cpu1-cpu0)
	}
	out.diag["untraced_ops"], out.diag["traced_ops"] = u.ops, t.ops

	acc := tr.acc
	acc.addCounters(counterDelta(m0, m1))
	acc.counterOps = u.ops
	l := acc.layers()
	perOp := func(metric, counter string, scale float64) {
		if v, ok := acc.perOp(counter); ok {
			l[metric] = v * scale
		}
	}
	perOp("serve.http_requests", "serve/http_requests", 1)
	perOp("obs.trace_spans", "trace/spans_started", 1)
	perOp("durable.wal_records", "durable/wal/records", 1)
	perOp("durable.wal_fsyncs", "durable/wal/fsyncs", 1)
	perOp("durable.wal_snapshots", "durable/wal/snapshots", 1000)
	if n := float64(acc.spanOps); n > 0 {
		l["serve.submit_ms"] = ms(tr.submit) / n
		l["serve.events_ms"] = ms(tr.events) / n
		l["serve.result_ms"] = ms(tr.result) / n
		if run, ok := acc.spanMs("synth/run"); ok {
			l["serve.synth_frac"] = run / (ms(tr.all) / n)
		}
	}
	if u.ops > 0 {
		l["serve.sse_bytes"] = float64(u.sseBytes) / float64(u.ops)
		l["serve.client_cpu_ms"] = ms(clientU) / float64(u.ops)
	}
	out.perLayer = l
	return out, tr.rec.writePerfetto(cfg.tracePath())
}
