package ucp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestAddColumnValidation(t *testing.T) {
	m := NewMatrix(3)
	if _, err := m.AddColumn(Column{Rows: nil, Weight: 1}); err == nil {
		t.Error("empty cover should be rejected")
	}
	if _, err := m.AddColumn(Column{Rows: []int{0}, Weight: -1}); err == nil {
		t.Error("negative weight should be rejected")
	}
	if _, err := m.AddColumn(Column{Rows: []int{0}, Weight: math.NaN()}); err == nil {
		t.Error("NaN weight should be rejected")
	}
	if _, err := m.AddColumn(Column{Rows: []int{5}, Weight: 1}); err == nil {
		t.Error("out-of-range row should be rejected")
	}
	j, err := m.AddColumn(Column{Rows: []int{2, 0, 2, 1}, Weight: 1})
	if err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	if got := m.colMask[j][0]; got != 0b111 {
		t.Errorf("cover mask = %b, want rows 0, 1 and 2", got)
	}
}

func TestFeasibility(t *testing.T) {
	m := NewMatrix(2)
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 1})
	if m.Feasible() {
		t.Error("row 1 uncovered; should be infeasible")
	}
	if _, err := m.SolveContext(context.Background()); err == nil {
		t.Error("Solve should reject infeasible instance")
	}
	if _, err := m.SolveGreedy(); err == nil {
		t.Error("SolveGreedy should reject infeasible instance")
	}
	if _, err := m.SolveExhaustiveContext(context.Background()); err == nil {
		t.Error("SolveExhaustive should reject infeasible instance")
	}
}

func TestSolveTrivial(t *testing.T) {
	m := NewMatrix(2)
	m.MustAddColumn(Column{Rows: []int{0, 1}, Weight: 3})
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 1})
	sol, err := m.SolveContext(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Cost != 2 {
		t.Errorf("cost = %v, want 2 (two singletons beat the bundle)", sol.Cost)
	}
	if !sol.Optimal || !m.Covers(sol.Columns) {
		t.Errorf("solution invalid: %+v", sol)
	}
}

func TestSolvePrefersBundleWhenCheaper(t *testing.T) {
	m := NewMatrix(3)
	m.MustAddColumn(Column{Rows: []int{0, 1, 2}, Weight: 2.5})
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{2}, Weight: 1})
	sol, err := m.SolveContext(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Cost != 2.5 || len(sol.Columns) != 1 || sol.Columns[0] != 0 {
		t.Errorf("solution = %+v, want the bundle", sol)
	}
}

func TestSolveEssentialColumn(t *testing.T) {
	m := NewMatrix(2)
	only := m.MustAddColumn(Column{Rows: []int{0}, Weight: 5}) // the only cover of row 0
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 2})
	sol, err := m.SolveContext(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	found := false
	for _, j := range sol.Columns {
		if j == only {
			found = true
		}
	}
	if !found {
		t.Errorf("essential column missing from %v", sol.Columns)
	}
	if sol.Cost != 6 {
		t.Errorf("cost = %v, want 6", sol.Cost)
	}
}

func TestSolveEqualColumnsNotBothErased(t *testing.T) {
	// Two identical columns: dominance must not delete both.
	m := NewMatrix(1)
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 2})
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 2})
	sol, err := m.SolveContext(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Cost != 2 || len(sol.Columns) != 1 {
		t.Errorf("solution = %+v", sol)
	}
}

func TestGreedyFeasibleButMaybeSuboptimal(t *testing.T) {
	// Classic greedy trap: greedy picks the big cheap-ratio column then
	// needs two more; optimum is two columns.
	m := NewMatrix(4)
	m.MustAddColumn(Column{Rows: []int{0, 1, 2}, Weight: 3}) // ratio 1.0
	m.MustAddColumn(Column{Rows: []int{0, 1}, Weight: 2.2})  // ratio 1.1
	m.MustAddColumn(Column{Rows: []int{2, 3}, Weight: 2.2})  // ratio 1.1
	m.MustAddColumn(Column{Rows: []int{3}, Weight: 2})
	g, err := m.SolveGreedy()
	if err != nil {
		t.Fatalf("SolveGreedy: %v", err)
	}
	if !m.Covers(g.Columns) {
		t.Error("greedy solution does not cover")
	}
	e, err := m.SolveContext(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if e.Cost > g.Cost+1e-12 {
		t.Errorf("exact (%v) worse than greedy (%v)", e.Cost, g.Cost)
	}
	if e.Cost != 4.4 {
		t.Errorf("exact cost = %v, want 4.4", e.Cost)
	}
}

func TestExhaustiveLimit(t *testing.T) {
	m := NewMatrix(1)
	for i := 0; i < 25; i++ {
		m.MustAddColumn(Column{Rows: []int{0}, Weight: 1})
	}
	if _, err := m.SolveExhaustiveContext(context.Background()); err == nil {
		t.Error("exhaustive should refuse > 24 columns")
	}
}

func TestCostOfAndCovers(t *testing.T) {
	m := NewMatrix(2)
	a := m.MustAddColumn(Column{Rows: []int{0}, Weight: 1.5})
	b := m.MustAddColumn(Column{Rows: []int{1}, Weight: 2})
	if got := m.CostOf([]int{a, b}); got != 3.5 {
		t.Errorf("CostOf = %v", got)
	}
	if !m.Covers([]int{a, b}) || m.Covers([]int{a}) {
		t.Error("Covers wrong")
	}
}

// Property: branch-and-bound matches the exhaustive optimum on random
// instances, and greedy is never better than the optimum.
func TestSolveMatchesExhaustiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 120; trial++ {
		rows := 1 + r.Intn(7)
		cols := 1 + r.Intn(12)
		m := NewMatrix(rows)
		for j := 0; j < cols; j++ {
			var cover []int
			for rr := 0; rr < rows; rr++ {
				if r.Float64() < 0.45 {
					cover = append(cover, rr)
				}
			}
			if len(cover) == 0 {
				cover = []int{r.Intn(rows)}
			}
			m.MustAddColumn(Column{Rows: cover, Weight: 0.1 + r.Float64()*9.9})
		}
		if !m.Feasible() {
			continue
		}
		want, err := m.SolveExhaustiveContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d exhaustive: %v", trial, err)
		}
		got, err := m.SolveContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d solve: %v", trial, err)
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9 {
			t.Fatalf("trial %d: B&B cost %v ≠ exhaustive %v", trial, got.Cost, want.Cost)
		}
		if !m.Covers(got.Columns) {
			t.Fatalf("trial %d: B&B solution does not cover", trial)
		}
		greedy, err := m.SolveGreedy()
		if err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		if greedy.Cost < want.Cost-1e-9 {
			t.Fatalf("trial %d: greedy %v beat optimum %v", trial, greedy.Cost, want.Cost)
		}
	}
}

// Property: zero-weight columns are handled (free candidates must not
// break the bound logic).
func TestSolveZeroWeightColumns(t *testing.T) {
	m := NewMatrix(2)
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 0})
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 4})
	m.MustAddColumn(Column{Rows: []int{0, 1}, Weight: 5})
	sol, err := m.SolveContext(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Cost != 4 {
		t.Errorf("cost = %v, want 4", sol.Cost)
	}
}

func BenchmarkSolveRandom20x40(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	m := NewMatrix(20)
	for j := 0; j < 40; j++ {
		var cover []int
		for rr := 0; rr < 20; rr++ {
			if r.Float64() < 0.25 {
				cover = append(cover, rr)
			}
		}
		if len(cover) == 0 {
			cover = []int{r.Intn(20)}
		}
		m.MustAddColumn(Column{Rows: cover, Weight: 0.1 + r.Float64()*9.9})
	}
	for _, rr := range []int{0, 5, 10, 15} {
		m.MustAddColumn(Column{Rows: []int{rr}, Weight: 10})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
