package ucp

import (
	"context"
	"errors"
	"testing"
)

// Two columns whose cost-per-new-row ratios differ only by float
// rounding noise must be treated as a tie and resolved toward the
// column covering more rows — independent of insertion order. Before
// the num.Eq migration the raw `<` comparison let the 5e-13 ratio gap
// decide, so the chosen cover flipped with column order.
func TestGreedyNearEqualRatioTieBreak(t *testing.T) {
	narrow := Column{Weight: 1.0, Rows: []int{0}}          // ratio exactly 1.0
	wide := Column{Weight: 2.0 + 1e-12, Rows: []int{0, 1}} // ratio 1.0 + 5e-13
	filler := Column{Weight: 1.0, Rows: []int{1}}          // completes the narrow cover

	build := func(cols ...Column) *Matrix {
		m := NewMatrix(2)
		for _, c := range cols {
			m.MustAddColumn(c)
		}
		return m
	}

	var costs []float64
	for _, m := range []*Matrix{build(narrow, wide, filler), build(wide, narrow, filler)} {
		sol, err := m.SolveGreedy()
		if err != nil {
			t.Fatalf("SolveGreedy: %v", err)
		}
		if len(sol.Columns) != 1 {
			t.Errorf("greedy chose %d columns %v, want the single wide column", len(sol.Columns), sol.Columns)
		}
		costs = append(costs, sol.Cost)
	}
	if costs[0] != costs[1] {
		t.Errorf("greedy cost depends on column order: %v vs %v", costs[0], costs[1])
	}
}

// The Context variants added for the ctxflow invariant: a live context
// changes nothing, a dead one stops the solver with a wrapped
// context error (greedy has no feasible partial cover to return).
func TestGreedyAndExhaustiveContext(t *testing.T) {
	m := NewMatrix(3)
	m.MustAddColumn(Column{Weight: 1, Rows: []int{0, 1}})
	m.MustAddColumn(Column{Weight: 1, Rows: []int{1, 2}})
	m.MustAddColumn(Column{Weight: 3, Rows: []int{0, 1, 2}})

	want, err := m.SolveGreedy()
	if err != nil {
		t.Fatalf("SolveGreedy: %v", err)
	}
	got, err := m.SolveGreedyContext(context.Background())
	if err != nil {
		t.Fatalf("SolveGreedyContext(background): %v", err)
	}
	if got.Cost != want.Cost {
		t.Errorf("SolveGreedyContext cost %v != SolveGreedy cost %v", got.Cost, want.Cost)
	}

	exGot, err := m.SolveExhaustiveContext(context.Background())
	if err != nil {
		t.Fatalf("SolveExhaustiveContext(background): %v", err)
	}
	if exGot.Cost != 2 {
		t.Errorf("SolveExhaustiveContext cost %v, want the optimum 2", exGot.Cost)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.SolveGreedyContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("SolveGreedyContext(canceled): err = %v, want errors.Is(err, context.Canceled)", err)
	}
	if _, err := m.SolveExhaustiveContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("SolveExhaustiveContext(canceled): err = %v, want errors.Is(err, context.Canceled)", err)
	}
}
