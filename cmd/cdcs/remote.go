package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/serve"
)

// remoteFlags is the subset of CLI state the remote path consumes;
// the local-only outputs are listed so their use with -server is a
// usage error instead of a silent no-op.
type remoteFlags struct {
	server    string
	retries   int
	graphPath string
	libPath   string
	example   string
	solver    string
	workers   int
	timeout   time.Duration
	report    string
	// trace is the distributed-trace output path: the submission roots
	// a trace, and after the job finishes the client fetches GET
	// /v1/traces/{traceID} from the replica that accepted the job and
	// writes one Perfetto-loadable file.
	trace string

	// local-only flags, rejected when set
	dot, svg, jsonOut string
	simulate, metrics bool
	progress          bool
}

// runRemote submits the instance to a cdcsd daemon via the retrying
// client, waits for the job, prints the daemon's result, and exits
// through os.Exit on failure. Only the exact solver runs remotely —
// the daemon owns its own solver policy.
func runRemote(f remoteFlags) {
	for name, set := range map[string]bool{
		"-dot":      f.dot != "",
		"-svg":      f.svg != "",
		"-json":     f.jsonOut != "",
		"-simulate": f.simulate,
		"-metrics":  f.metrics,
		"-progress": f.progress,
	} {
		if set {
			fmt.Fprintf(os.Stderr, "cdcs: %s is local-only and cannot be combined with -server\n", name)
			os.Exit(2)
		}
	}
	if f.solver != "exact" {
		fmt.Fprintf(os.Stderr, "cdcs: -solver %s is local-only; the daemon runs the exact flow\n", f.solver)
		os.Exit(2)
	}
	spec, err := buildSpec(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdcs:", err)
		os.Exit(2)
	}

	c := client.New(client.Config{
		BaseURLs:    strings.Split(f.server, ","),
		MaxAttempts: f.retries,
		Logger:      status,
	})
	ctx := context.Background()
	// With -trace the submission roots a distributed trace: the client
	// stamps the context as a traceparent header, so the daemon's spans
	// join a trace we can collect afterwards.
	var root obs.SpanContext
	if f.trace != "" {
		root = obs.NewIDSource(0).NewRoot()
		ctx = obs.ContextWithSpanContext(ctx, root)
	}
	job, err := c.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdcs: submit:", err)
		os.Exit(1)
	}
	status.Info("job submitted", "server", job.Server, "job_id", job.ID, "workload", job.Workload)
	fin, err := c.Wait(ctx, job.ID, 100*time.Millisecond)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdcs: wait:", err)
		os.Exit(1)
	}
	if fin.State != "done" {
		fmt.Fprintf(os.Stderr, "cdcs: job %s %s: %s\n", fin.ID, fin.State, fin.Error)
		os.Exit(1)
	}
	if fin.Restarted {
		status.Info("job was re-executed after a daemon restart", "job_id", fin.ID)
	}
	printRemoteResult(fin)
	if f.trace != "" {
		writeRemoteTrace(ctx, c, fin, root, f.trace)
	}
	if f.report != "" {
		if err := os.WriteFile(f.report, append(fin.Result, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cdcs: write report:", err)
			os.Exit(1)
		}
		status.Info("report written", "path", f.report)
	}
}

// writeRemoteTrace pulls the finished job's distributed trace from
// the replica that accepted it and writes it as a Perfetto file. A
// trace fetch failure is a warning, not a run failure: the result
// already printed.
func writeRemoteTrace(ctx context.Context, c *client.Client, fin *client.Job, root obs.SpanContext, path string) {
	traceID := fin.TraceID
	if traceID == "" {
		// Older daemons omit the trace ID from the envelope; the trace,
		// if captured at all, is the root we submitted under.
		traceID = root.TraceID.String()
	}
	data, err := c.CollectTrace(ctx, traceID)
	if err != nil {
		status.Warn("trace collection failed", "trace_id", traceID, "error", err.Error())
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "cdcs: write trace:", err)
		os.Exit(1)
	}
	status.Info("trace written",
		"path", path, "trace_id", traceID, "viewer", "chrome://tracing or ui.perfetto.dev")
}

// buildSpec renders the POST /v1/synthesize body from the same inputs
// the local path loads.
func buildSpec(f remoteFlags) ([]byte, error) {
	req := serve.SynthesizeRequest{
		Example: f.example,
		Options: serve.RequestOptions{
			Workers:   f.workers,
			TimeoutMs: f.timeout.Milliseconds(),
		},
	}
	if f.example == "" {
		if f.graphPath == "" || f.libPath == "" {
			return nil, fmt.Errorf("need -graph and -lib, or -example")
		}
		graph, err := os.ReadFile(f.graphPath)
		if err != nil {
			return nil, err
		}
		lib, err := os.ReadFile(f.libPath)
		if err != nil {
			return nil, err
		}
		req.Graph = graph
		req.Library = lib
		req.Workload = workloadName(f.graphPath, "")
	}
	return json.Marshal(req)
}

// printRemoteResult renders the daemon's result in the local report's
// style — same numbers, no candidate table (the daemon does not
// return per-candidate detail).
func printRemoteResult(job *client.Job) {
	var res serve.Result
	if err := json.Unmarshal(job.Result, &res); err != nil {
		fmt.Fprintln(os.Stderr, "cdcs: undecodable result:", err)
		os.Exit(1)
	}
	fmt.Printf("channels            : %d\n", res.Channels)
	fmt.Printf("point-to-point cost : %.3f\n", res.P2PCost)
	fmt.Printf("optimal cost        : %.3f\n", res.Cost)
	fmt.Printf("savings             : %.1f%%\n", res.SavingsPct)
	fmt.Printf("result optimal      : %v\n", res.Optimal)
	fmt.Printf("elapsed             : %.3fms (server)\n", res.ElapsedMs)
	if res.Degraded {
		fmt.Println("degradation         :")
		for _, line := range res.Degradation {
			fmt.Printf("  - %s\n", line)
		}
	}
}
