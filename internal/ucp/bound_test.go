package ucp

import (
	"context"
	"math/rand"
	"testing"
)

func fullState(m *Matrix) (*bbState, []bool, []bool) {
	s := &bbState{m: m}
	active := make([]bool, m.numRows)
	for i := range active {
		active[i] = true
	}
	avail := make([]bool, len(m.cols))
	for i := range avail {
		avail[i] = true
	}
	return s, active, avail
}

func TestDualAscentBoundSimple(t *testing.T) {
	// Two disjoint rows, singleton columns: bound = sum of cheapest.
	m := NewMatrix(2)
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 3})
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 5})
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 2})
	s, active, avail := fullState(m)
	if got := s.dualAscentBound(active, avail); got != 5 {
		t.Errorf("dual ascent = %v, want 5", got)
	}
}

func TestDualAscentTighterThanMISOnOverlap(t *testing.T) {
	// Three rows covered pairwise by shared columns: the MIS can pick
	// only one row (every pair shares a column), while dual ascent keeps
	// raising the second row's dual until tightness.
	m := NewMatrix(3)
	m.MustAddColumn(Column{Rows: []int{0, 1}, Weight: 4})
	m.MustAddColumn(Column{Rows: []int{1, 2}, Weight: 4})
	m.MustAddColumn(Column{Rows: []int{0, 2}, Weight: 4})
	s, active, avail := fullState(m)
	mis := s.lowerBound(active, avail)
	da := s.dualAscentBound(active, avail)
	if da < mis {
		t.Errorf("expected dual ascent (%v) ≥ MIS (%v) here", da, mis)
	}
	// Optimum is 8 (two columns); both bounds must stay below.
	opt, err := m.SolveExhaustiveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if da > opt.Cost+1e-9 || mis > opt.Cost+1e-9 {
		t.Errorf("bound exceeded optimum %v: mis=%v da=%v", opt.Cost, mis, da)
	}
}

// Property: both bounds are admissible (never exceed the exhaustive
// optimum) on random instances, and the combined bound is their max.
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
		s, active, avail := fullState(m)
		mis := s.lowerBound(active, avail)
		da := s.dualAscentBound(active, avail)
		comb := s.combinedBound(active, avail)
		if mis > opt.Cost+1e-9 {
			t.Fatalf("trial %d: MIS bound %v > optimum %v", trial, mis, opt.Cost)
		}
		if da > opt.Cost+1e-9 {
			t.Fatalf("trial %d: dual-ascent bound %v > optimum %v", trial, da, opt.Cost)
		}
		if comb < mis-1e-12 || comb < da-1e-12 {
			t.Fatalf("trial %d: combined bound %v below components (%v, %v)", trial, comb, mis, da)
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
