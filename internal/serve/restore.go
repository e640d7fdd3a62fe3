package serve

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/cdcs"
	"repro/internal/durable"
	"repro/internal/obs"
)

// persistJob logs an accepted submission to the WAL, together with
// the finished job its admission evicted. All persist* helpers are
// called WITHOUT s.mu held (the store may compact, and compaction
// snapshots the table through s.mu) and tolerate a closed or failing
// store: durability degrades to lossy, serving never stops.
func (s *Server) persistJob(j *Job) {
	if s.store == nil {
		return
	}
	sp := j.tracer.Start(j.span, "serve/wal-append")
	err := s.store.AppendJob(j.ID, j.Workload, j.created, j.spec(), j.traceparent(), j.evicts)
	j.tracer.End(sp)
	if err != nil {
		s.walWarn("job", j.ID, err)
	}
}

// persistResult logs the terminal outcome; the stored Result bytes
// are what a restarted daemon serves, byte-identically, for this job.
func (s *Server) persistResult(j *Job) {
	if s.store == nil {
		return
	}
	j.mu.Lock()
	res := j.result
	errMsg := j.errMsg
	j.mu.Unlock()
	var raw json.RawMessage
	if res != nil {
		data, err := json.Marshal(res)
		if err != nil {
			s.walWarn("result", j.ID, err)
			return
		}
		raw = data
	}
	if err := s.store.AppendResult(j.ID, raw, errMsg, j.restarted); err != nil {
		s.walWarn("result", j.ID, err)
	}
}

func (s *Server) walWarn(kind, id string, err error) {
	if errors.Is(err, durable.ErrClosed) {
		return // shutdown/crash race: persistence is over by design
	}
	s.log.Warn("wal append failed", "record", kind, "job_id", id, "error", err.Error())
}

// spec returns the job's submission JSON: the verbatim replayed bytes
// for a restored job, a fresh marshal otherwise.
func (j *Job) spec() json.RawMessage {
	if len(j.specRaw) > 0 {
		return j.specRaw
	}
	data, err := json.Marshal(j.req)
	if err != nil {
		return nil
	}
	return data
}

// decodeSpec rebuilds a job's request and instance from the spec its
// WAL record stores (Job.spec).
func decodeSpec(spec json.RawMessage) (SynthesizeRequest, *cdcs.ConstraintGraph, *cdcs.Library, error) {
	var req SynthesizeRequest
	if err := json.Unmarshal(spec, &req); err != nil {
		return req, nil, nil, err
	}
	cg, lib, _, err := decodeInstance(&req)
	return req, cg, lib, err
}

// snapshotTable renders the current job table for WAL compaction —
// the durable.Options.Source hook. Takes s.mu, so the store must never
// be called while holding it.
func (s *Server) snapshotTable() []durable.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]durable.Job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j.durable())
		}
	}
	return jobs
}

// durable renders the job's current durable view. Lock order is
// s.mu → j.mu, same as the listing path.
func (j *Job) durable() durable.Job {
	spec := j.spec()
	j.mu.Lock()
	defer j.mu.Unlock()
	dj := durable.Job{
		ID:        j.ID,
		Workload:  j.Workload,
		Created:   j.created,
		State:     j.state,
		Restarted: j.restarted,
		Spec:      spec,
		Error:     j.errMsg,
		Trace:     j.traceparent(),
	}
	if j.abandoned {
		// Drained before it won a slot: failed in memory, but durably
		// still queued, so the next start re-queues it.
		dj.State, dj.Error = StateQueued, ""
	}
	if j.result != nil {
		if data, err := json.Marshal(j.result); err == nil {
			dj.Result = data
		}
	}
	return dj
}

// restore folds the replayed durable state back into the job table:
// finished jobs come back queryable (with synthetic run_start/run_end
// SSE replay), interrupted jobs are re-queued through the normal
// synth pipeline and marked restarted. Runs during New, before the
// server accepts traffic.
func (s *Server) restore(rep *durable.Replay) {
	if rep.Skipped > 0 {
		s.log.Warn("wal replay skipped records", "skipped", rep.Skipped)
	}
	jobs := rep.Jobs
	// Respect the retention bound: keep every unfinished job, drop
	// the oldest finished ones beyond MaxJobs.
	if over := len(jobs) - s.cfg.MaxJobs; over > 0 {
		kept := make([]*durable.Job, 0, s.cfg.MaxJobs)
		for _, dj := range jobs {
			if over > 0 && (dj.State == StateDone || dj.State == StateFailed) {
				over--
				continue
			}
			kept = append(kept, dj)
		}
		jobs = kept
	}

	var requeued []*Job
	restoredDone := 0
	for _, dj := range jobs {
		var n int
		if _, err := fmt.Sscanf(dj.ID, "j-%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
		switch dj.State {
		case StateDone, StateFailed:
			j := s.restoreFinished(dj)
			s.jobs[j.ID] = j
			s.order = append(s.order, j.ID)
			restoredDone++
		default: // queued or running at crash time: re-queue
			j := s.requeue(dj)
			s.jobs[j.ID] = j
			s.order = append(s.order, j.ID)
			if j.State() == StateQueued {
				s.active++
				requeued = append(requeued, j)
			} else {
				// Rebuild failed permanently: record it so the next
				// restart does not retry a spec that cannot decode.
				s.persistResult(j)
			}
		}
	}
	for _, j := range requeued {
		s.wg.Add(1)
		s.startJob(j)
	}
	if restoredDone > 0 || len(requeued) > 0 {
		s.log.Info("job table restored",
			"finished", restoredDone, "requeued", len(requeued),
			"replayed_records", rep.Records, "skipped", rep.Skipped)
	}
}

// restoreFinished rebuilds a terminal job, including a minimal
// synthetic event history so SSE replay of a restored job still
// serves a contiguous, cleanly-terminated stream.
func (s *Server) restoreFinished(dj *durable.Job) *Job {
	j := &Job{
		ID:        dj.ID,
		Workload:  dj.Workload,
		now:       s.now,
		restarted: dj.Restarted,
		specRaw:   dj.Spec,
		state:     dj.State,
		created:   dj.Created,
		errMsg:    dj.Error,
		events:    obs.NewEvents(obs.DefaultEventBuffer, nil),
		done:      make(chan struct{}),
	}
	// Replay the persisted trace identity: the restored job's SSE
	// history and /trace endpoint answer with the original trace ID
	// (the spans themselves did not survive the crash).
	if sc, ok := obs.ParseTraceparent(dj.Trace); ok {
		j.sc = sc
		j.traceID = sc.TraceID.String()
		j.events.SetTrace(j.traceID, sc.SpanID.String())
	}
	if len(dj.Result) > 0 {
		var res Result
		if err := json.Unmarshal(dj.Result, &res); err == nil {
			if res.Degradation == nil {
				res.Degradation = []string{}
			}
			j.result = &res
		} else {
			s.log.Warn("restored result undecodable", "job_id", dj.ID, "error", err.Error())
		}
	}
	start := obs.Event{Type: obs.EventRunStart}
	if j.result != nil {
		start.Channels = j.result.Channels
	}
	j.events.Publish(start)
	if dj.State == StateFailed {
		j.events.Publish(obs.Event{Type: obs.EventRunError, Err: dj.Error})
	} else if j.result != nil {
		j.events.Publish(obs.Event{
			Type:     obs.EventRunEnd,
			Cost:     j.result.Cost,
			Optimal:  j.result.Optimal,
			Degraded: j.result.Degraded,
		})
	} else {
		j.events.Publish(obs.Event{Type: obs.EventRunEnd})
	}
	j.events.Close()
	close(j.done)
	return j
}

// requeue rebuilds an interrupted job for idempotent re-execution. A
// spec that no longer decodes (should not happen: it decoded when
// first accepted) fails the job instead of dropping it silently.
func (s *Server) requeue(dj *durable.Job) *Job {
	j := &Job{
		ID:        dj.ID,
		Workload:  dj.Workload,
		now:       s.now,
		restarted: true,
		specRaw:   dj.Spec,
		state:     StateQueued,
		created:   dj.Created,
		events:    obs.NewEvents(obs.DefaultEventBuffer, nil),
		done:      make(chan struct{}),
	}
	// The persisted trace context makes the re-execution a child of
	// the original trace: the new serve/job root parents under the
	// crashed run's root span, so collectors stitch both attempts.
	parent, _ := obs.ParseTraceparent(dj.Trace)
	req, cg, lib, decodeErr := decodeSpec(dj.Spec)
	if decodeErr == nil {
		j.req, j.cg, j.lib = req, cg, lib
		s.initJobTrace(j, parent, "restored", 0)
		return j
	}
	j.state = StateFailed
	j.errMsg = "restart could not rebuild the job: " + decodeErr.Error()
	if parent.Valid() {
		j.sc = parent
		j.traceID = parent.TraceID.String()
		j.events.SetTrace(j.traceID, parent.SpanID.String())
	}
	j.events.Publish(obs.Event{Type: obs.EventRunStart})
	j.events.Publish(obs.Event{Type: obs.EventRunError, Err: j.errMsg})
	j.events.Close()
	close(j.done)
	s.log.Error("requeue failed", "job_id", dj.ID, "error", decodeErr.Error())
	return j
}
