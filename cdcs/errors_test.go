package cdcs

import (
	"errors"
	"fmt"
	"testing"
)

// The facade's sentinels must survive wrapping: every layer that adds
// context with %w keeps errors.Is working, which is why the errsentinel
// analyzer bans identity comparison against them.
func TestSentinelsMatchThroughWrapping(t *testing.T) {
	sentinels := map[string]error{
		"ErrCanceled":   ErrCanceled,
		"ErrInfeasible": ErrInfeasible,
	}
	for name, sentinel := range sentinels {
		wrapped := fmt.Errorf("synth: solving mpeg4: %w", sentinel)
		double := fmt.Errorf("cli: %w", wrapped)
		if !errors.Is(wrapped, sentinel) {
			t.Errorf("errors.Is(wrapped, %s) = false", name)
		}
		if !errors.Is(double, sentinel) {
			t.Errorf("errors.Is(double-wrapped, %s) = false", name)
		}
		// Identity comparison (the pre-fix bug the errsentinel analyzer
		// bans) would be false here: wrapping allocates a new error value.
		for other, os := range sentinels {
			if other != name && errors.Is(wrapped, os) {
				t.Errorf("wrapped %s also matches %s", name, other)
			}
		}
	}
}
