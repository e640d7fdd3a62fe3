package obs

import (
	"sync"
	"testing"
	"time"
)

// publishN publishes n enum_level events.
func publishN(e *Events, n int) {
	for i := 0; i < n; i++ {
		e.Publish(Event{Type: EventEnumLevel, K: i})
	}
}

// requireSeqs fails unless evs carry the sequence numbers first,
// first+1, …, last, in order: no gap, no duplicate.
func requireSeqs(t *testing.T, evs []Event, first, last int64) {
	t.Helper()
	if want := int(last - first + 1); len(evs) != want {
		t.Fatalf("got %d events, want %d (seq %d..%d)", len(evs), want, first, last)
	}
	for i, ev := range evs {
		if want := first + int64(i); ev.Seq != want {
			t.Fatalf("event %d has Seq %d, want %d (gap or duplicate)", i, ev.Seq, want)
		}
	}
}

// isClosed reports whether ch is already closed.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestEventsPublishStampsContiguousSeq(t *testing.T) {
	e := NewEvents(16, nil)
	publishN(e, 5)
	evs, _, closed := e.Since(0)
	requireSeqs(t, evs, 1, 5)
	if closed {
		t.Error("an open stream reported closed")
	}
}

// TestEventsReplayThenTailIsGapFree reads the retained history, waits
// on the returned channel, and reads again from the last Seq it got:
// the two reads must join without a gap or a duplicate.
func TestEventsReplayThenTailIsGapFree(t *testing.T) {
	e := NewEvents(64, nil)
	publishN(e, 10)
	replay, next, _ := e.Since(0)
	requireSeqs(t, replay, 1, 10)
	if evs, _, _ := e.Since(10); len(evs) != 0 {
		t.Fatalf("Since(last) returned %d events before any publish, want 0", len(evs))
	}
	if isClosed(next) {
		t.Fatal("wake channel closed before the next publish")
	}
	publishN(e, 10)
	if !isClosed(next) {
		t.Fatal("Publish did not close the wake channel")
	}
	tail, _, _ := e.Since(replay[len(replay)-1].Seq)
	requireSeqs(t, append(replay, tail...), 1, 20)
}

func TestEventsRingDropsOldest(t *testing.T) {
	e := NewEvents(4, nil)
	publishN(e, 10)
	evs, _, _ := e.Since(0)
	// The oldest are dropped first: seq 7..10 remain.
	requireSeqs(t, evs, 7, 10)
	for i, ev := range evs {
		if want := 6 + i; ev.K != want {
			t.Errorf("event %d has K %d, want %d", i, ev.K, want)
		}
	}
	part, _, _ := e.Since(8)
	requireSeqs(t, part, 9, 10)
}

// TestEventsRingGrowsOnDemand: the ring's storage follows the events
// published, not the cap, so a stream of a few events stays small.
func TestEventsRingGrowsOnDemand(t *testing.T) {
	e := NewEvents(DefaultEventBuffer, nil)
	if cap(e.buf) != 0 {
		t.Fatalf("fresh stream holds %d slots, want 0", cap(e.buf))
	}
	publishN(e, 16)
	if c := cap(e.buf); c < 16 || c > 32 {
		t.Errorf("16 events hold %d slots, want 16..32", c)
	}
	publishN(e, 3*DefaultEventBuffer)
	if len(e.buf) != DefaultEventBuffer {
		t.Errorf("ring holds %d events, want the cap %d", len(e.buf), DefaultEventBuffer)
	}
}

// TestEventsRingAllocations: the first publish allocates 16 slots, so
// a 15-event stream costs itself and one ring, and a 25-event stream
// one regrowth more.
func TestEventsRingAllocations(t *testing.T) {
	for _, c := range []struct {
		events int
		allocs float64
	}{{15, 2}, {25, 3}} {
		got := testing.AllocsPerRun(100, func() {
			publishN(NewEvents(DefaultEventBuffer, nil), c.events)
		})
		if got > c.allocs {
			t.Errorf("a fresh stream of %d events costs %.0f allocations, want <= %.0f", c.events, got, c.allocs)
		}
	}
}

// TestEventsLaggingReaderWithinRingLosesNothing: a reader 600 events
// behind gets all 600, contiguous (a 256-event per-reader queue would
// have dropped 344 of them).
func TestEventsLaggingReaderWithinRingLosesNothing(t *testing.T) {
	e := NewEvents(DefaultEventBuffer, nil)
	publishN(e, 5)
	first, _, _ := e.Since(0)
	publishN(e, 600)
	evs, _, _ := e.Since(first[len(first)-1].Seq)
	requireSeqs(t, evs, 6, 605)
}

// TestEventsReaderBeyondRingResumesAtOldest: a reader more than the
// ring's size behind resumes at the oldest retained event — its gap in
// Seq shows what it lost — and sees no duplicate.
func TestEventsReaderBeyondRingResumesAtOldest(t *testing.T) {
	e := NewEvents(DefaultEventBuffer, nil)
	publishN(e, 10)
	first, _, _ := e.Since(0)
	publishN(e, 1500)
	evs, _, _ := e.Since(first[len(first)-1].Seq)
	const last = 1510
	requireSeqs(t, evs, last-DefaultEventBuffer+1, last)
	more, _, _ := e.Since(evs[len(evs)-1].Seq)
	if len(more) != 0 {
		t.Errorf("reading on from the last Seq returned %d events, want 0", len(more))
	}
}

// TestEventsSlowSubscriberNeverBlocksPublisher: a reader that asked to
// be woken and then never reads must not hold up Publish.
func TestEventsSlowSubscriberNeverBlocksPublisher(t *testing.T) {
	e := NewEvents(64, nil)
	_, next, _ := e.Since(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		publishN(e, 10*64)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a reader that never reads")
	}
	if !isClosed(next) {
		t.Error("the silent reader's wake channel was not closed")
	}
	evs, _, _ := e.Since(0)
	requireSeqs(t, evs, 10*64-63, 10*64)
}

func TestEventsNilReceiverIsInert(t *testing.T) {
	var e *Events
	e.Publish(Event{Type: EventIncumbent}) // must not panic
	e.SetTrace("t", "s")
	evs, next, closed := e.Since(0)
	if len(evs) != 0 {
		t.Errorf("nil Since events = %v, want none", evs)
	}
	if !closed {
		t.Error("nil Since must report closed")
	}
	if !isClosed(next) {
		t.Error("nil Since must return a closed channel")
	}
	e.Close()
}

func TestEventsClose(t *testing.T) {
	e := NewEvents(16, nil)
	e.Publish(Event{Type: EventRunStart})
	_, next, _ := e.Since(1)
	e.Publish(Event{Type: EventRunEnd})
	_, next2, _ := e.Since(2)
	e.Close()
	e.Close() // idempotent
	if !isClosed(next) || !isClosed(next2) {
		t.Fatal("Close must wake every waiting reader")
	}
	// Publishing after Close is dropped.
	e.Publish(Event{Type: EventIncumbent})
	evs, next3, closed := e.Since(1)
	if !closed || !isClosed(next3) {
		t.Error("Since after Close must report closed with a closed channel")
	}
	if len(evs) != 1 || evs[0].Type != EventRunEnd {
		t.Fatalf("Since(1) after Close = %v, want the one run_end", evs)
	}
	// A late reader still gets the retained history.
	replay, _, _ := e.Since(0)
	requireSeqs(t, replay, 1, 2)
}

// TestEventsConcurrentPublishSubscribe follows the stream with Since
// from two readers while four publishers race, the way SSE handlers
// do; under -race this is the stream's data-race check.
func TestEventsConcurrentPublishSubscribe(t *testing.T) {
	e := NewEvents(DefaultEventBuffer, nil)
	const publishers, each, readers = 4, 100, 2
	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < each; i++ {
				e.Publish(Event{Type: EventIncumbent})
			}
		}()
	}
	go func() {
		pubs.Wait()
		e.Close()
	}()
	got := make([][]Event, readers)
	var reads sync.WaitGroup
	for r := range got {
		reads.Add(1)
		go func() {
			defer reads.Done()
			var seq int64
			for {
				evs, next, closed := e.Since(seq)
				got[r] = append(got[r], evs...)
				if len(evs) > 0 {
					seq = evs[len(evs)-1].Seq
				}
				if closed {
					return
				}
				select {
				case <-next:
				case <-time.After(5 * time.Second):
					t.Errorf("reader %d not woken after %d events", r, len(got[r]))
					return
				}
			}
		}()
	}
	reads.Wait()
	for _, evs := range got {
		requireSeqs(t, evs, 1, publishers*each)
	}
}

func TestEventsDeterministicTimestamps(t *testing.T) {
	tick := time.Unix(0, 0)
	now := func() time.Time {
		tick = tick.Add(time.Millisecond)
		return tick
	}
	e := NewEvents(8, now)
	e.Publish(Event{Type: EventRunStart})
	e.Publish(Event{Type: EventRunEnd})
	evs, _, _ := e.Since(0)
	if evs[0].TimeUs != 0 || evs[1].TimeUs != 1000 {
		t.Errorf("TimeUs = %d, %d; want 0, 1000 (relative to first event)", evs[0].TimeUs, evs[1].TimeUs)
	}
}
