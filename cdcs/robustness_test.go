package cdcs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFacadeTypedSentinels: the re-exported sentinels are matchable
// with errors.Is through the public API.
func TestFacadeTypedSentinels(t *testing.T) {
	cg, lib := buildSystem(t)

	// Pre-canceled context → ErrCanceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SynthesizeContext(ctx, cg, lib, Options{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("pre-canceled: err = %v, want errors.Is(err, ErrCanceled)", err)
	}
}

// TestFacadeTimeout: a timeout through the facade never errors or
// returns an unverifiable result, whether or not it fires in time.
func TestFacadeTimeout(t *testing.T) {
	cg, lib := buildSystem(t)
	ig, rep, err := Synthesize(cg, lib, Options{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("Synthesize with timeout: %v", err)
	}
	if err := Verify(ig); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if rep.Cost > rep.P2PCost+1e-9 {
		t.Errorf("cost %v exceeds the p2p fallback %v", rep.Cost, rep.P2PCost)
	}
}

// TestFacadeSynthesizeContextPlain: SynthesizeContext with a live
// context behaves exactly like Synthesize.
func TestFacadeSynthesizeContextPlain(t *testing.T) {
	cg, lib := buildSystem(t)
	ig, rep, err := SynthesizeContext(context.Background(), cg, lib, Options{})
	if err != nil {
		t.Fatalf("SynthesizeContext: %v", err)
	}
	if err := Verify(ig); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if rep.Degradation.Degraded() {
		t.Errorf("unexpected degradation: %v", rep.Degradation.Summary())
	}
	if !rep.ResultOptimal() {
		t.Error("ResultOptimal() false on a clean run")
	}
}
