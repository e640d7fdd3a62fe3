package synth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/impl"
	"repro/internal/model"
	"repro/internal/workloads"
)

// TestPreCanceledContext: a context that is dead before synthesis
// starts returns ErrCanceled (matching the context's own error too) and
// no partial result.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ig, rep, err := SynthesizeContext(ctx, workloads.WAN(), workloads.WANLibrary(), Options{})
	if ig != nil || rep != nil {
		t.Fatalf("pre-canceled context returned a result: ig=%v rep=%v", ig, rep)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want errors.Is(err, ErrCanceled)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want errors.Is(err, context.Canceled)", err)
	}

	// Same for an already-expired deadline.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	_, _, err = SynthesizeContext(dctx, workloads.WAN(), workloads.WANLibrary(), Options{})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want ErrCanceled and context.DeadlineExceeded", err)
	}
}

// checkDegradedResult asserts the anytime contract on a degraded run:
// no error, a verifiable graph, a populated degradation section, a cost
// no better than the true optimum and no worse than all-p2p, and a
// finite gap bound.
func checkDegradedResult(t *testing.T, ig *impl.Graph, rep *Report, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("degraded run must not error: %v", err)
	}
	if ig == nil || rep == nil {
		t.Fatal("degraded run returned nil result")
	}
	if err := ig.Verify(); err != nil {
		t.Fatalf("degraded architecture fails verification: %v", err)
	}
	if !rep.Degradation.Degraded() {
		t.Fatal("Degradation not populated on a degraded run")
	}
	if rep.ResultOptimal() {
		t.Fatal("ResultOptimal() true on a degraded run")
	}
	if len(rep.Degradation.Summary()) == 0 {
		t.Fatal("Degradation.Summary() empty on a degraded run")
	}
	if rep.Cost > rep.P2PCost+1e-9 {
		t.Fatalf("degraded cost %.6f exceeds the all-p2p fallback %.6f", rep.Cost, rep.P2PCost)
	}
	if g := rep.Degradation.GapBound; g < -1e-9 || math.IsInf(g, 0) || math.IsNaN(g) {
		t.Fatalf("gap bound %v not finite/non-negative", g)
	}
}

// TestDeadlineDuringPricing: a latency hook makes Step 1c slow enough
// that a small overall timeout reliably expires there; the run must
// degrade gracefully at every worker count.
func TestDeadlineDuringPricing(t *testing.T) {
	testPricingHook = func([]model.ChannelID) { time.Sleep(2 * time.Millisecond) }
	defer func() { testPricingHook = nil }()

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ig, rep, err := Synthesize(workloads.WAN(), workloads.WANLibrary(), Options{
				Workers: workers,
				Timeout: 15 * time.Millisecond,
			})
			checkDegradedResult(t, ig, rep, err)
			if !rep.Degradation.PricingInterrupted {
				t.Errorf("PricingInterrupted not set; degradation: %v", rep.Degradation.Summary())
			}
			if rep.Degradation.PricingSkipped <= 0 {
				t.Errorf("PricingSkipped = %d, want > 0", rep.Degradation.PricingSkipped)
			}
		})
	}
}

// TestPricingPanicTyped: a panic inside candidate pricing surfaces as a
// *PricingPanicError naming the candidate — never a process crash — at
// every worker count (run under -race this also checks the pool's
// recovery path).
func TestPricingPanicTyped(t *testing.T) {
	testPricingHook = func(set []model.ChannelID) {
		if len(set) == 2 {
			panic("injected pricing panic")
		}
	}
	defer func() { testPricingHook = nil }()

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ig, rep, err := Synthesize(workloads.WAN(), workloads.WANLibrary(), Options{Workers: workers})
			if err == nil {
				t.Fatal("panicking pricing hook must surface an error")
			}
			if ig != nil || rep != nil {
				t.Error("panicking run returned a partial result")
			}
			var pe *PricingPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want errors.As(*PricingPanicError)", err)
			}
			if len(pe.Channels) != 2 {
				t.Errorf("panic error names candidate %v, want a 2-set", pe.Channels)
			}
			if pe.Value != "injected pricing panic" {
				t.Errorf("panic value = %v", pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Error("panic error carries no stack trace")
			}
		})
	}
}

// TestModerateTimeoutAlwaysUsable: with a timeout the WAN run may or
// may not degrade depending on machine speed; either way the result
// must be verifiable and internally consistent.
func TestModerateTimeoutAlwaysUsable(t *testing.T) {
	ig, rep, err := Synthesize(workloads.WAN(), workloads.WANLibrary(), Options{
		Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := ig.Verify(); err != nil {
		t.Fatalf("result fails verification: %v", err)
	}
	if rep.Cost > rep.P2PCost+1e-9 {
		t.Fatalf("cost %.6f exceeds the all-p2p fallback %.6f", rep.Cost, rep.P2PCost)
	}
	if rep.Degradation.Degraded() == rep.ResultOptimal() && rep.SolverOptimal {
		// Degraded() and ResultOptimal() must disagree when the solver
		// proved optimality over whatever candidates it saw.
		t.Errorf("inconsistent: Degraded=%v ResultOptimal=%v SolverOptimal=%v",
			rep.Degradation.Degraded(), rep.ResultOptimal(), rep.SolverOptimal)
	}
}
