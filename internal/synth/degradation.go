package synth

import (
	"errors"
	"fmt"

	"repro/internal/model"
)

// ErrCanceled is returned when the context is already canceled (or its
// deadline already passed) before synthesis produced anything worth
// degrading to. Once the flow is past point-to-point planning it never
// returns this: a later deadline degrades the result instead of
// erroring (see Degradation). The error wraps the context's own error,
// so errors.Is matches both ErrCanceled and context.Canceled /
// context.DeadlineExceeded.
var ErrCanceled = errors.New("synth: canceled before start")

// PricingPanicError reports a panic recovered inside a Step 1c pricing
// worker, naming the candidate whose pricing panicked. It aborts the
// run as an error (never a process crash) and is matchable with
// errors.As.
type PricingPanicError struct {
	// Channels is the candidate set whose pricing panicked.
	Channels []model.ChannelID
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PricingPanicError) Error() string {
	return fmt.Sprintf("synth: pricing candidate %v panicked: %v", e.Channels, e.Value)
}

// Degradation records everything a deadline cut short during a run.
// The zero value means the flow ran to completion; any flag set means
// the returned architecture is feasible and verified but possibly
// sub-optimal.
type Degradation struct {
	// EnumerationInterrupted is true when a deadline stopped candidate
	// enumeration.
	EnumerationInterrupted bool
	// PricingInterrupted is true when a deadline stopped candidate
	// pricing; PricingSkipped counts the enumerated mergings that were
	// never priced (and therefore never entered the covering instance).
	PricingInterrupted bool
	PricingSkipped     int
	// SolverInterrupted is true when a deadline stopped the covering
	// branch-and-bound; the solution is its best incumbent.
	SolverInterrupted bool
	// CoverLowerBound is an admissible lower bound on the optimal cost
	// of the covering instance that was actually solved: the optimum of
	// every block the solver finished, plus the root dual-ascent bound
	// of every other block (ucp.Solution.LowerBound). GapBound =
	// Report.Cost − CoverLowerBound bounds the optimality gap of the
	// returned architecture relative to that instance. When enumeration
	// or pricing was also cut short, the bound is relative to the
	// truncated candidate set (the full set could in principle do
	// better). Both are zero when the solver proved optimality.
	CoverLowerBound float64
	GapBound        float64
}

// Degraded reports whether anything was cut short.
func (d *Degradation) Degraded() bool {
	return d.EnumerationInterrupted || d.PricingInterrupted || d.SolverInterrupted
}

// Summary returns human-readable lines describing what was cut short,
// empty when nothing was.
func (d *Degradation) Summary() []string {
	var out []string
	if d.EnumerationInterrupted {
		out = append(out, "candidate enumeration interrupted by deadline")
	}
	if d.PricingInterrupted {
		out = append(out, fmt.Sprintf("candidate pricing interrupted by deadline (%d mergings unpriced)", d.PricingSkipped))
	}
	if d.SolverInterrupted {
		out = append(out, fmt.Sprintf("covering solver interrupted: best incumbent returned, cost ≤ optimum + %.4g (root bound %.4g)", d.GapBound, d.CoverLowerBound))
	}
	return out
}
