package cdcs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workloads"
)

// TestProgressCallback drives the public Options.Progress surface: the
// callback must receive the whole event stream — run bracket, every
// phase, at least one incumbent — in publication order, all delivered
// before Synthesize returns. Incumbents describe the whole covering
// instance: each brackets the run's cost between its lower bound and
// its cost, and the last one is the run's cost.
func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var got []Event
	ig, rep, err := Synthesize(workloads.WAN(), workloads.WANLibrary(), Options{
		Workers: 1,
		Progress: func(ev Event) {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if ig == nil || !rep.ResultOptimal() {
		t.Fatal("wan run must produce an optimal graph")
	}
	// Synthesize has returned, so delivery is complete: no lock needed,
	// but keep it to stay race-detector honest.
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("no progress events delivered")
	}
	for i, ev := range got {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d (delivery must be gap-free and ordered)", i, ev.Seq, i+1)
		}
	}
	if got[0].Type != obs.EventRunStart || got[0].Channels != 8 {
		t.Errorf("first event = %+v, want run_start with 8 channels", got[0])
	}
	if last := got[len(got)-1]; last.Type != obs.EventRunEnd || !last.Optimal {
		t.Errorf("last event = %+v, want optimal run_end", last)
	}
	counts := map[string]int{}
	var last Event
	for _, ev := range got {
		counts[ev.Type]++
		if ev.Type != obs.EventIncumbent {
			continue
		}
		if ev.LowerBound > rep.Cost || rep.Cost > ev.Cost {
			t.Errorf("incumbent %+v does not bracket the run's cost %v", ev, rep.Cost)
		}
		last = ev
	}
	if counts[obs.EventIncumbent] == 0 {
		t.Error("no incumbent events")
	} else if last.Cost != rep.Cost {
		t.Errorf("last incumbent costs %v, run costs %v", last.Cost, rep.Cost)
	}
	if counts[obs.EventPhaseStart] != 5 || counts[obs.EventPhaseEnd] != 5 {
		t.Errorf("phase events = %d start / %d end, want 5/5", counts[obs.EventPhaseStart], counts[obs.EventPhaseEnd])
	}
}

// TestProgressReusedObserver runs twice on one Observer with an event
// stream: the second run's callback must get only its own events, one
// run_start and as many events as the first run, numbered on from where
// the first run ended, not a replay of the first run's retained events.
func TestProgressReusedObserver(t *testing.T) {
	obsv := NewObserver(ObserverConfig{Events: true})
	run := func() []Event {
		var got []Event
		_, _, err := Synthesize(workloads.WAN(), workloads.WANLibrary(), Options{
			Workers:  1,
			Observer: obsv,
			Progress: func(ev Event) { got = append(got, ev) },
		})
		if err != nil {
			t.Fatalf("Synthesize: %v", err)
		}
		return got
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("first run delivered no events")
	}
	starts := 0
	for _, ev := range second {
		if ev.Type == obs.EventRunStart {
			starts++
		}
	}
	if starts != 1 || len(second) != len(first) {
		t.Fatalf("second run got %d events with %d run_start, want %d with 1", len(second), starts, len(first))
	}
	for i, ev := range second {
		if want := first[len(first)-1].Seq + int64(i+1); ev.Seq != want {
			t.Fatalf("second run's event %d has Seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestProgressWithObserver combines Progress with a caller-built
// Observer that had no event stream: the facade retrofits one and both
// collectors serve the same run.
func TestProgressWithObserver(t *testing.T) {
	obsv := NewObserver(ObserverConfig{Metrics: true})
	var events int
	_, _, err := Synthesize(workloads.WAN(), workloads.WANLibrary(), Options{
		Workers:  1,
		Observer: obsv,
		Progress: func(Event) { events++ },
	})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if events == 0 {
		t.Error("no events delivered through a retrofitted observer stream")
	}
	if obsv.Metrics().Snapshot().CounterMap()["synth/runs"] != 1 {
		t.Error("observer metrics must keep working alongside Progress")
	}
}

// TestProgressSlowCallbackDoesNotStallRun pins the bounded drop-oldest
// contract: a pathologically slow callback lags (events may drop) but
// the synthesis itself must finish promptly.
func TestProgressSlowCallbackDoesNotStallRun(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := Synthesize(workloads.WAN(), workloads.WANLibrary(), Options{
			Workers:  1,
			Progress: func(Event) { time.Sleep(2 * time.Millisecond) },
		})
		if err != nil {
			t.Errorf("Synthesize: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("slow Progress callback stalled the run")
	}
}

// TestProgressErrorEvent asserts a failing run ends its stream with
// run_error carrying the failure.
func TestProgressErrorEvent(t *testing.T) {
	cg, _ := buildSystem(t)
	// A library whose only link can neither span nor be repeated makes
	// p2p planning fail deterministically.
	lib := &Library{Links: []Link{{Name: "short", Bandwidth: 100, MaxSpan: 1, CostPerLength: 1}}}
	var got []Event
	_, _, err := Synthesize(cg, lib, Options{
		Workers:  1,
		Progress: func(ev Event) { got = append(got, ev) },
	})
	if err == nil {
		t.Fatal("want a planning error")
	}
	if len(got) == 0 {
		t.Fatal("no events delivered for the failing run")
	}
	last := got[len(got)-1]
	if last.Type != obs.EventRunError || last.Err == "" {
		t.Errorf("last event = %+v, want run_error with a message", last)
	}
}
