package merging

import (
	"context"
	"testing"
)

// TestEnumerateContextCanceled: a dead context stops enumeration with
// Interrupted set and no error; the partial result is usable.
func TestEnumerateContextCanceled(t *testing.T) {
	cg := clusterInstance(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := EnumerateContext(ctx, cg, testLib(), Options{Policy: MaxIndexRef})
	if err != nil {
		t.Fatalf("canceled context must degrade, not error: %v", err)
	}
	if !res.Interrupted {
		t.Error("Interrupted not set on a dead context")
	}
	// A pre-dead context is observed before any level runs.
	if got := res.TotalCandidates(); got != 0 {
		t.Errorf("TotalCandidates=%d, want 0 for a pre-dead context", got)
	}
}
