package obs

import (
	"sync"
	"time"
)

// Event is one typed progress notification from a running synthesis.
// Events are emitted at the flow's decision points — phase boundaries
// in synth, per-arity level completions in merging, every incumbent
// improvement in the covering branch-and-bound — and stream to
// subscribers while the run is still in flight, which is what makes a
// long anytime solve observable before its deadline fires.
//
// The struct is flat so its JSON form is one self-describing NDJSON
// line with deterministic key order; unused fields are omitted. Which
// fields a given Type populates is cataloged in docs/OBSERVABILITY.md.
type Event struct {
	// Seq is the stream-assigned sequence number, contiguous from 1.
	// Replay-then-tail consumers (SSE clients) verify gap-free
	// delivery against it.
	Seq int64 `json:"seq"`
	// TimeUs is microseconds since the stream's first event.
	TimeUs int64 `json:"timeUs"`
	// Type discriminates the event (the Event* constants).
	Type string `json:"type"`
	// Phase names the synthesis phase for phase_start/phase_end.
	Phase string `json:"phase,omitempty"`
	// Channels and Workers describe the run (run_start).
	Channels int `json:"channels,omitempty"`
	Workers  int `json:"workers,omitempty"`
	// K, Candidates and SetsTested report per-arity enumeration
	// progress (enum_level): candidates accepted at level K and the
	// cumulative subsets tested so far.
	K          int `json:"k,omitempty"`
	Candidates int `json:"candidates,omitempty"`
	SetsTested int `json:"setsTested,omitempty"`
	// Cost, LowerBound, Gap and Nodes describe an incumbent
	// improvement (incumbent) or the final outcome (run_end).
	Cost       float64 `json:"cost,omitempty"`
	LowerBound float64 `json:"lowerBound,omitempty"`
	Gap        float64 `json:"gap,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`
	// Optimal and Degraded summarize the outcome (run_end).
	Optimal  bool `json:"optimal,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// Err carries the failure for run_error.
	Err string `json:"error,omitempty"`
	// TraceID and SpanID correlate the event with a distributed trace
	// (stamped by the stream when SetTrace was called, so every SSE
	// line of a traced job links back to its trace).
	TraceID string `json:"traceId,omitempty"`
	SpanID  string `json:"spanId,omitempty"`
}

// Event types.
const (
	// EventRunStart opens a run (Channels, Workers).
	EventRunStart = "run_start"
	// EventRunEnd closes a successful run (Cost, Optimal, Degraded).
	EventRunEnd = "run_end"
	// EventRunError closes a failed run (Err).
	EventRunError = "run_error"
	// EventPhaseStart / EventPhaseEnd bracket a synthesis phase
	// (Phase: plan, enumerate, price, solve, materialize).
	EventPhaseStart = "phase_start"
	EventPhaseEnd   = "phase_end"
	// EventEnumLevel reports one completed enumeration arity level
	// (K, Candidates, SetsTested).
	EventEnumLevel = "enum_level"
	// EventIncumbent reports a branch-and-bound incumbent improvement
	// (Cost, LowerBound, Gap, Nodes).
	EventIncumbent = "incumbent"
)

// DefaultEventBuffer is the replay ring size of every stream a Sink
// creates, and of every job stream the serving daemon creates.
const DefaultEventBuffer = 1024

// DefaultSubscriberBuffer is a subscriber's queue size when Subscribe
// is called with a non-positive buffer.
const DefaultSubscriberBuffer = 256

// Events is a bounded, drop-oldest, concurrency-safe pub/sub stream.
// Published events are stamped with a contiguous sequence number and
// kept in a bounded replay ring (oldest dropped first), so a late
// subscriber receives the retained history followed by the live tail
// with no gap and no duplicate — Subscribe snapshots the ring and
// registers the tail channel under one lock.
//
// A nil *Events is a valid no-op receiver everywhere, so emitting code
// never branches on "is the stream on".
type Events struct {
	mu      sync.Mutex
	cap     int
	buf     []Event // replay ring, rotated via start
	start   int
	count   int
	seq     int64
	dropped int64
	subs    map[int]chan Event
	nextSub int
	closed  bool
	now     func() time.Time
	epoch   time.Time
	traceID string
	spanID  string
}

// SetTrace makes the stream stamp every subsequently-published event
// with the given trace correlation IDs (an event's own non-empty IDs
// win). The serving daemon calls it once at job admission, before the
// run publishes anything.
func (e *Events) SetTrace(traceID, spanID string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.traceID = traceID
	e.spanID = spanID
}

// NewEvents returns a stream retaining the last bufCap events for
// replay (<=0 means DefaultEventBuffer) under the given clock (nil
// means time.Now).
func NewEvents(bufCap int, now func() time.Time) *Events {
	if bufCap <= 0 {
		bufCap = DefaultEventBuffer
	}
	if now == nil {
		now = time.Now
	}
	return &Events{
		cap:  bufCap,
		buf:  make([]Event, 0, bufCap),
		subs: make(map[int]chan Event),
		now:  now,
	}
}

// Publish stamps ev with the next sequence number and relative
// timestamp, retains it in the replay ring (dropping the oldest
// retained event when full), and offers it to every subscriber. A
// subscriber whose queue is full has its own oldest queued event
// dropped to make room — a slow consumer lags, it never blocks the
// publisher (the solver's hot path). No-op on a nil or closed stream.
func (e *Events) Publish(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	ts := e.now()
	if e.epoch.IsZero() {
		e.epoch = ts
	}
	e.seq++
	ev.Seq = e.seq
	ev.TimeUs = ts.Sub(e.epoch).Microseconds()
	if ev.TraceID == "" {
		ev.TraceID = e.traceID
	}
	if ev.SpanID == "" {
		ev.SpanID = e.spanID
	}
	if e.count < e.cap {
		e.buf = append(e.buf, ev)
		e.count++
	} else {
		e.buf[e.start] = ev
		e.start = (e.start + 1) % e.cap
		e.dropped++
	}
	for _, ch := range e.subs {
		select {
		case ch <- ev:
		default:
			// Full queue: drop the subscriber's oldest, then retry. The
			// second send can only fail if the subscriber drained and
			// refilled the queue concurrently; dropping the new event
			// then is the same bounded-lag contract.
			select {
			case <-ch:
				e.dropped++
			default:
			}
			select {
			case ch <- ev:
			default:
				e.dropped++
			}
		}
	}
}

// Subscribe atomically snapshots the replay ring and registers a live
// tail channel with the given queue size (<=0 means
// DefaultSubscriberBuffer): the returned history followed by the
// channel's events is sequence-contiguous. cancel unregisters and
// closes the channel (already-queued events remain receivable); on a
// closed stream the channel comes back closed, so consumers uniformly
// run replay-then-range. A nil *Events subscribes to an empty, closed
// stream.
func (e *Events) Subscribe(buf int) (replay []Event, live <-chan Event, cancel func()) {
	if buf <= 0 {
		buf = DefaultSubscriberBuffer
	}
	ch := make(chan Event, buf)
	if e == nil {
		close(ch)
		return nil, ch, func() {}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	replay = e.historyLocked()
	if e.closed {
		close(ch)
		return replay, ch, func() {}
	}
	id := e.nextSub
	e.nextSub++
	e.subs[id] = ch
	return replay, ch, func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, ok := e.subs[id]; ok {
			delete(e.subs, id)
			close(ch)
		}
	}
}

// History returns a copy of the retained events, oldest first.
func (e *Events) History() []Event {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.historyLocked()
}

func (e *Events) historyLocked() []Event {
	out := make([]Event, 0, e.count)
	for i := 0; i < e.count; i++ {
		out = append(out, e.buf[(e.start+i)%e.cap])
	}
	return out
}

// Dropped returns how many events were evicted from the replay ring or
// subscriber queues.
func (e *Events) Dropped() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// Close ends the stream: every subscriber's channel is closed (after
// its queued events drain) and further publishes are dropped. The
// replay ring stays readable, so late subscribers still get the full
// retained history followed by an immediately-closed tail. Safe to
// call more than once; no-op on nil.
func (e *Events) Close() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	for id, ch := range e.subs {
		delete(e.subs, id)
		close(ch)
	}
}
