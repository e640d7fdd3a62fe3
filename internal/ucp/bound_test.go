package ucp

import (
	"context"
	"math/rand"
	"testing"
)

// rootBound returns the dual-ascent bound of the whole instance.
func rootBound(m *Matrix) float64 {
	s := &search{m: m, slack: make([]float64, len(m.weight))}
	b := m.whole()
	return s.dualAscentBound(b.rows, b.cols)
}

func TestDualAscentBoundSimple(t *testing.T) {
	// Two disjoint rows, singleton columns: bound = sum of cheapest.
	m := NewMatrix(2)
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 3})
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 5})
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 2})
	if got := rootBound(m); got != 5 {
		t.Errorf("dual ascent = %v, want 5", got)
	}
	// Three rows covered pairwise by shared columns: the first row's
	// dual makes two of the three columns tight, so the bound stops at
	// one column's weight, half the optimum.
	m = NewMatrix(3)
	m.MustAddColumn(Column{Rows: []int{0, 1}, Weight: 4})
	m.MustAddColumn(Column{Rows: []int{1, 2}, Weight: 4})
	m.MustAddColumn(Column{Rows: []int{0, 2}, Weight: 4})
	if got := rootBound(m); got != 4 {
		t.Errorf("dual ascent on the triangle = %v, want 4", got)
	}
}

// Property: the dual-ascent bound is admissible (never exceeds the
// exhaustive optimum) on random instances.
func TestBoundsAdmissibleProperty(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for trial := 0; trial < 150; trial++ {
		rows := 1 + r.Intn(6)
		cols := 1 + r.Intn(10)
		m := NewMatrix(rows)
		for j := 0; j < cols; j++ {
			var cover []int
			for rr := 0; rr < rows; rr++ {
				if r.Float64() < 0.5 {
					cover = append(cover, rr)
				}
			}
			if len(cover) == 0 {
				cover = []int{r.Intn(rows)}
			}
			m.MustAddColumn(Column{Rows: cover, Weight: 0.25 + r.Float64()*8})
		}
		if !m.Feasible() {
			continue
		}
		opt, err := m.SolveExhaustiveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if da := rootBound(m); da > opt.Cost+1e-9 {
			t.Fatalf("trial %d: dual-ascent bound %v > optimum %v", trial, da, opt.Cost)
		}
	}
}

// Property: row dominance never changes the optimum (solver with the
// full reduction stack still matches exhaustive). Heavier-overlap
// instances exercise the row-dominance path specifically.
func TestRowDominancePreservesOptimumProperty(t *testing.T) {
	r := rand.New(rand.NewSource(405))
	for trial := 0; trial < 80; trial++ {
		rows := 2 + r.Intn(5)
		m := NewMatrix(rows)
		// Nested covers: columns covering prefixes force row dominance.
		for j := 0; j < 8; j++ {
			k := 1 + r.Intn(rows)
			cover := make([]int, k)
			for i := range cover {
				cover[i] = i
			}
			m.MustAddColumn(Column{Rows: cover, Weight: 0.5 + r.Float64()*5})
		}
		if !m.Feasible() {
			continue
		}
		want, err := m.SolveExhaustiveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.SolveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if diff := got.Cost - want.Cost; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: solve %v ≠ exhaustive %v", trial, got.Cost, want.Cost)
		}
	}
}
