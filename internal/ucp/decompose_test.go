package ucp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestComponentsSplit(t *testing.T) {
	m := NewMatrix(4)
	m.MustAddColumn(Column{Rows: []int{0, 1}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{2, 3}, Weight: 1})
	blocks := m.components()
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(blocks))
	}
	if len(blocks[0][0]) != 2 || len(blocks[1][0]) != 2 {
		t.Errorf("row split wrong: %v", blocks)
	}
	if len(blocks[0][1]) != 2 || len(blocks[1][1]) != 1 {
		t.Errorf("column split wrong: %v", blocks)
	}
}

func TestSolveDecomposedSingleBlock(t *testing.T) {
	m := NewMatrix(2)
	m.MustAddColumn(Column{Rows: []int{0, 1}, Weight: 2})
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 1.5})
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 1.5})
	direct, err := m.SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := m.SolveDecomposedContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.Cost-dec.Cost) > 1e-12 {
		t.Errorf("decomposed %v ≠ direct %v", dec.Cost, direct.Cost)
	}
}

func TestSolveDecomposedInfeasible(t *testing.T) {
	m := NewMatrix(2)
	m.MustAddColumn(Column{Rows: []int{0}, Weight: 1})
	if _, err := m.SolveDecomposedContext(context.Background()); err == nil {
		t.Error("infeasible instance should error")
	}
}

// Property: on random block-structured instances, the decomposed solve
// matches the exhaustive optimum and returns a valid cover.
func TestSolveDecomposedMatchesExhaustiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(808))
	for trial := 0; trial < 60; trial++ {
		nBlocks := 1 + r.Intn(3)
		rowsPerBlock := 1 + r.Intn(3)
		total := nBlocks * rowsPerBlock
		m := NewMatrix(total)
		for b := 0; b < nBlocks; b++ {
			base := b * rowsPerBlock
			nCols := 1 + r.Intn(5)
			for j := 0; j < nCols; j++ {
				var cover []int
				for rr := 0; rr < rowsPerBlock; rr++ {
					if r.Float64() < 0.6 {
						cover = append(cover, base+rr)
					}
				}
				if len(cover) == 0 {
					cover = []int{base + r.Intn(rowsPerBlock)}
				}
				m.MustAddColumn(Column{Rows: cover, Weight: 0.5 + r.Float64()*5})
			}
			// Ensure feasibility of each block.
			all := make([]int, rowsPerBlock)
			for rr := range all {
				all[rr] = base + rr
			}
			m.MustAddColumn(Column{Rows: all, Weight: 4 + r.Float64()*4})
		}
		want, err := m.SolveExhaustiveContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d exhaustive: %v", trial, err)
		}
		got, err := m.SolveDecomposedContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d decomposed: %v", trial, err)
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9 {
			t.Fatalf("trial %d: decomposed %v ≠ exhaustive %v", trial, got.Cost, want.Cost)
		}
		if !m.Covers(got.Columns) {
			t.Fatalf("trial %d: decomposed solution does not cover", trial)
		}
		if math.Abs(m.CostOf(got.Columns)-got.Cost) > 1e-9 {
			t.Fatalf("trial %d: reported cost mismatches selected columns", trial)
		}
	}
}

func BenchmarkSolveDecomposedVsDirect(b *testing.B) {
	// Four independent 6-row blocks: decomposition should beat direct
	// branch-and-bound over the union.
	build := func() *Matrix {
		r := rand.New(rand.NewSource(5))
		m := NewMatrix(24)
		for blk := 0; blk < 4; blk++ {
			base := blk * 6
			for j := 0; j < 14; j++ {
				var cover []int
				for rr := 0; rr < 6; rr++ {
					if r.Float64() < 0.4 {
						cover = append(cover, base+rr)
					}
				}
				if len(cover) == 0 {
					cover = []int{base + r.Intn(6)}
				}
				m.MustAddColumn(Column{Rows: cover, Weight: 0.5 + r.Float64()*5})
			}
		}
		return m
	}
	m := build()
	if !m.Feasible() {
		b.Skip("unlucky seed")
	}
	b.Run("decomposed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.SolveDecomposedContext(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.SolveContext(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
