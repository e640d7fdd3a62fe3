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

// firstEventSlots is a ring's first allocation: a serving job's ~15
// events fit in it and a synthesis run's 17–25 regrow it once. The
// daemon keeps finished jobs' rings, so it is sized to a job, not the
// cap.
const firstEventSlots = 16

// closedWake is the wake channel Since hands out once a stream is
// closed (or nil): a reader's select on it returns at once.
var closedWake = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Events is a bounded, drop-oldest, concurrency-safe event stream.
// Published events are stamped with a contiguous sequence number and
// kept in a replay ring that grows on demand up to its cap and then
// drops the oldest event first. Readers follow the stream by sequence
// number with Since, so a stream holds no per-reader state: a reader
// that falls more than the cap behind resumes at the oldest retained
// event and sees the gap in seq.
//
// A nil *Events is a valid no-op receiver everywhere, so emitting code
// never branches on "is the stream on".
type Events struct {
	mu      sync.Mutex
	cap     int
	buf     []Event // replay ring: appended up to cap, then rotated via start
	start   int
	seq     int64
	wake    chan struct{} // closed by the next Publish or Close; nil until a reader waits
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
// means time.Now). The ring is allocated for 16 events at the first
// publish and grows with the events published, not with bufCap.
func NewEvents(bufCap int, now func() time.Time) *Events {
	if bufCap <= 0 {
		bufCap = DefaultEventBuffer
	}
	if now == nil {
		now = time.Now
	}
	return &Events{cap: bufCap, now: now}
}

// Publish stamps ev with the next sequence number and relative
// timestamp, retains it in the replay ring (dropping the oldest
// retained event when full), and wakes every waiting reader. It never
// waits on a reader, so a slow one cannot stall the publisher (the
// solver's hot path). No-op on a nil or closed stream.
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
	if len(e.buf) < e.cap {
		if e.buf == nil {
			e.buf = make([]Event, 0, min(firstEventSlots, e.cap))
		}
		e.buf = append(e.buf, ev)
	} else {
		e.buf[e.start] = ev
		e.start = (e.start + 1) % e.cap
	}
	e.wakeLocked()
}

// Since returns a copy of the retained events with a sequence number
// above seq, oldest first; when the ring no longer holds seq+1, it
// starts at the oldest retained event. It also returns a channel that
// the next Publish or Close closes, and whether the stream is closed,
// in which case no event will follow the returned ones. A reader
// passes the last Seq it received (0 at first), handles the returned
// events and then waits on the channel. A nil *Events returns no
// events and reports closed.
func (e *Events) Since(seq int64) (evs []Event, next <-chan struct{}, closed bool) {
	if e == nil {
		return nil, closedWake, true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	first := e.seq - int64(len(e.buf)) + 1
	if seq < first {
		seq = first - 1
	}
	if n := int(e.seq - seq); n > 0 {
		evs = make([]Event, n)
		for i := range evs {
			evs[i] = e.buf[(e.start+int(seq-first)+1+i)%len(e.buf)]
		}
	}
	if e.closed {
		return evs, closedWake, true
	}
	if e.wake == nil {
		e.wake = make(chan struct{})
	}
	return evs, e.wake, false
}

// Seq returns the sequence number of the last published event, 0 when
// there is none or the stream is nil. A reader that starts Since there
// sees only the events published after this call.
func (e *Events) Seq() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// Close ends the stream: waiting readers wake, further publishes are
// dropped and every later Since reports closed. The replay ring stays
// readable, so a late reader still gets the full retained history.
// Safe to call more than once; no-op on nil.
func (e *Events) Close() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	e.wakeLocked()
}

func (e *Events) wakeLocked() {
	if e.wake != nil {
		close(e.wake)
		e.wake = nil
	}
}
