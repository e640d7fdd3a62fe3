package ucp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// randomInstance builds a random covering matrix. Feasibility is not
// guaranteed — infeasible draws exercise the ErrInfeasible path.
func randomInstance(rng *rand.Rand) *Matrix {
	rows := 4 + rng.Intn(10)
	cols := 3 + rng.Intn(25)
	m := NewMatrix(rows)
	for j := 0; j < cols; j++ {
		var covered []int
		for r := 0; r < rows; r++ {
			if rng.Float64() < 0.35 {
				covered = append(covered, r)
			}
		}
		if len(covered) == 0 {
			covered = []int{rng.Intn(rows)}
		}
		m.MustAddColumn(Column{Rows: covered, Weight: 0.5 + 4*rng.Float64()})
	}
	return m
}

// TestAnytimeProperties checks, over random matrices, the anytime-solver
// contract: the exact optimum never exceeds the greedy cost, every
// returned solution is a genuine cover, LowerBound is admissible, and an
// interrupted solve still returns a valid cover marked non-optimal.
func TestAnytimeProperties(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomInstance(rng)

		if !m.Feasible() {
			if _, err := m.SolveContext(context.Background()); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("seed %d: infeasible instance: Solve err = %v, want ErrInfeasible", seed, err)
			}
			if _, err := m.SolveGreedy(); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("seed %d: infeasible instance: SolveGreedy err = %v, want ErrInfeasible", seed, err)
			}
			continue
		}

		greedy, err := m.SolveGreedy()
		if err != nil {
			t.Fatalf("seed %d: greedy: %v", seed, err)
		}
		exact, err := m.SolveContext(context.Background())
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}

		if !m.Covers(greedy.Columns) {
			t.Fatalf("seed %d: greedy solution does not cover all rows", seed)
		}
		if !m.Covers(exact.Columns) {
			t.Fatalf("seed %d: exact solution does not cover all rows", seed)
		}
		if exact.Cost > greedy.Cost+1e-9 {
			t.Fatalf("seed %d: exact cost %.6f > greedy cost %.6f", seed, exact.Cost, greedy.Cost)
		}
		if !exact.Optimal || exact.Interrupted {
			t.Fatalf("seed %d: uninterrupted exact solve: Optimal=%v Interrupted=%v", seed, exact.Optimal, exact.Interrupted)
		}
		if exact.LowerBound > exact.Cost+1e-9 {
			t.Fatalf("seed %d: LowerBound %.6f > Cost %.6f", seed, exact.LowerBound, exact.Cost)
		}
		if g := exact.GapBound(); g < -1e-9 || math.IsInf(g, 0) || math.IsNaN(g) {
			t.Fatalf("seed %d: bad gap bound %v", seed, g)
		}

		// Interrupted solve: a dead context before the search starts must
		// still yield a valid (greedy-seeded) cover, marked non-optimal,
		// with an admissible lower bound.
		interrupted, err := m.SolveContext(canceled)
		if err != nil {
			t.Fatalf("seed %d: interrupted solve errored: %v", seed, err)
		}
		if !interrupted.Interrupted || interrupted.Optimal {
			t.Fatalf("seed %d: dead-context solve: Optimal=%v Interrupted=%v, want false/true",
				seed, interrupted.Optimal, interrupted.Interrupted)
		}
		if !m.Covers(interrupted.Columns) {
			t.Fatalf("seed %d: interrupted solution does not cover all rows", seed)
		}
		if interrupted.Cost < exact.Cost-1e-9 {
			t.Fatalf("seed %d: interrupted cost %.6f beats the optimum %.6f", seed, interrupted.Cost, exact.Cost)
		}
		if interrupted.LowerBound > exact.Cost+1e-9 {
			t.Fatalf("seed %d: interrupted LowerBound %.6f is not admissible (optimum %.6f)",
				seed, interrupted.LowerBound, exact.Cost)
		}
		if g := interrupted.GapBound(); g < -1e-9 || math.IsInf(g, 0) || math.IsNaN(g) {
			t.Fatalf("seed %d: interrupted gap bound %v not finite/non-negative", seed, g)
		}
	}
}

// TestSolveContextMidSearchDeadline runs larger instances under a real
// (already-expiring) deadline. Whether or not the solver happens to
// finish first, every invariant must hold — and the expired-deadline
// variant must always report the interruption.
func TestSolveContextMidSearchDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rows := 30
	m := NewMatrix(rows)
	for j := 0; j < 120; j++ {
		var covered []int
		for r := 0; r < rows; r++ {
			if rng.Float64() < 0.2 {
				covered = append(covered, r)
			}
		}
		if len(covered) == 0 {
			covered = []int{rng.Intn(rows)}
		}
		m.MustAddColumn(Column{Rows: covered, Weight: 1 + rng.Float64()})
	}
	if !m.Feasible() {
		t.Fatal("instance unexpectedly infeasible")
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	sol, err := m.SolveContext(ctx)
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if sol.Optimal || !sol.Interrupted {
		t.Fatalf("expired deadline: Optimal=%v Interrupted=%v, want false/true", sol.Optimal, sol.Interrupted)
	}
	if !m.Covers(sol.Columns) {
		t.Fatal("interrupted solution does not cover all rows")
	}
	if sol.LowerBound > sol.Cost+1e-9 {
		t.Fatalf("LowerBound %.6f > Cost %.6f", sol.LowerBound, sol.Cost)
	}
	if g := sol.GapBound(); g < -1e-9 || math.IsInf(g, 0) || math.IsNaN(g) {
		t.Fatalf("gap bound %v not finite/non-negative", g)
	}
}

// TestSolveDecomposedInterrupted checks that a solve of several blocks
// propagates interruption and accumulates per-block lower bounds.
func TestSolveDecomposedInterrupted(t *testing.T) {
	// Two independent 2-row blocks.
	m := NewMatrix(4)
	m.MustAddColumn(Column{Rows: []int{0, 1}, Weight: 3})
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{2, 3}, Weight: 3})
	m.MustAddColumn(Column{Rows: []int{2}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{3}, Weight: 1})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := m.SolveContext(ctx)
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if sol.Optimal || !sol.Interrupted {
		t.Fatalf("Optimal=%v Interrupted=%v, want false/true", sol.Optimal, sol.Interrupted)
	}
	if !m.Covers(sol.Columns) {
		t.Fatal("interrupted decomposed solution does not cover all rows")
	}
	if sol.LowerBound > sol.Cost+1e-9 {
		t.Fatalf("LowerBound %.6f > Cost %.6f", sol.LowerBound, sol.Cost)
	}

	// Uninterrupted decomposed solve on the same instance is optimal.
	opt, err := m.SolveContext(context.Background())
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if !opt.Optimal || opt.Interrupted {
		t.Fatalf("uninterrupted: Optimal=%v Interrupted=%v", opt.Optimal, opt.Interrupted)
	}
	if opt.Cost != 4 {
		t.Fatalf("optimum cost = %v, want 4", opt.Cost)
	}
	if sol.Cost < opt.Cost-1e-9 {
		t.Fatalf("interrupted cost %.6f beats the optimum %.6f", sol.Cost, opt.Cost)
	}
}

// TestInfeasibleSentinel checks every solver returns the shared typed
// sentinel for infeasible instances.
func TestInfeasibleSentinel(t *testing.T) {
	m := NewMatrix(2)
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 1}) // row 1 uncoverable

	if _, err := m.SolveContext(context.Background()); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Solve: err = %v, want ErrInfeasible", err)
	}
	if _, err := m.SolveGreedy(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("SolveGreedy: err = %v, want ErrInfeasible", err)
	}
	if _, err := m.SolveExhaustiveContext(context.Background()); !errors.Is(err, ErrInfeasible) {
		t.Errorf("SolveExhaustive: err = %v, want ErrInfeasible", err)
	}
}
