package ucp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

func TestComponentsSplit(t *testing.T) {
	m := NewMatrix(4)
	m.MustAddColumn(Column{Rows: []int{0, 1}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{2, 3}, Weight: 1})
	blocks := m.blocks()
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(blocks))
	}
	if blocks[0].rows[0] != 0b0011 || blocks[1].rows[0] != 0b1100 {
		t.Errorf("row split wrong: %b, %b", blocks[0].rows, blocks[1].rows)
	}
	if blocks[0].cols[0] != 0b011 || blocks[1].cols[0] != 0b100 {
		t.Errorf("column split wrong: %b, %b", blocks[0].cols, blocks[1].cols)
	}
}

// solveBlocksApart solves each block of m as a matrix of its own, rows
// and columns renumbered in index order, and sums the blocks' costs
// and counters in block order.
func solveBlocksApart(t *testing.T, m *Matrix) (float64, Stats) {
	t.Helper()
	var cost float64
	var st Stats
	for _, b := range m.blocks() {
		rows := appendOnes(nil, b.rows)
		index := make(map[int]int, len(rows))
		for i, r := range rows {
			index[r] = i
		}
		sub := NewMatrix(len(rows))
		for _, j := range appendOnes(nil, b.cols) {
			var cover []int
			for _, r := range appendOnes(nil, m.colMask[j]) {
				cover = append(cover, index[r])
			}
			sub.MustAddColumn(Column{Rows: cover, Weight: m.weight[j]})
		}
		sol, err := sub.SolveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cost += sol.Cost
		st.Nodes += sol.Stats.Nodes
		st.Prunes += sol.Stats.Prunes
		st.Reductions += sol.Stats.Reductions
		st.Infeasible += sol.Stats.Infeasible
		st.Incumbents += sol.Stats.Incumbents
	}
	return cost, st
}

// A single-block instance is searched whole, in one "ucp/solve" span;
// adding an independent block frames one span per block, in block
// order, in a "ucp/solve-decomposed" span, and counts a solve per
// block.
func TestSolveDecomposedSingleBlock(t *testing.T) {
	build := func(blocks int) *Matrix {
		m := NewMatrix(2 * blocks)
		for b := 0; b < blocks; b++ {
			m.MustAddColumn(Column{Rows: []int{2 * b, 2*b + 1}, Weight: 2})
			m.MustAddColumn(Column{Rows: []int{2 * b}, Weight: 1.5})
			m.MustAddColumn(Column{Rows: []int{2*b + 1}, Weight: 1.5})
		}
		return m
	}
	for _, c := range []struct {
		blocks int
		root   string
	}{{1, "ucp/solve"}, {2, "ucp/solve-decomposed"}} {
		sink := obs.New(obs.Config{Tracing: true, Metrics: true})
		sol, err := build(c.blocks).SolveContext(obs.NewContext(context.Background(), sink))
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Optimal || sol.Cost != 2*float64(c.blocks) {
			t.Errorf("%d blocks: solution %+v, want optimal at %d", c.blocks, sol, 2*c.blocks)
		}
		roots := sink.Tracer().Roots()
		if len(roots) != 1 || roots[0].Name != c.root {
			t.Fatalf("%d blocks: root spans %+v, want one %s", c.blocks, roots, c.root)
		}
		if c.blocks > 1 {
			if len(roots[0].Children) != c.blocks {
				t.Fatalf("%d blocks: %d child spans", c.blocks, len(roots[0].Children))
			}
			for _, sp := range roots[0].Children {
				if rows, _ := sp.Attr("rows"); sp.Name != "ucp/solve" || rows != "2" {
					t.Errorf("%d blocks: child span %s with %s rows, want ucp/solve with 2", c.blocks, sp.Name, rows)
				}
			}
		}
		if got := sink.Metrics().Snapshot().CounterMap()["ucp/solves"]; got != int64(c.blocks) {
			t.Errorf("%d blocks: ucp/solves = %d", c.blocks, got)
		}
	}
}

func TestSolveDecomposedInfeasible(t *testing.T) {
	// Row 2 is a block of its own with no column.
	m := NewMatrix(3)
	m.MustAddColumn(Column{Rows: []int{0, 1}, Weight: 1})
	m.MustAddColumn(Column{Rows: []int{1}, Weight: 1})
	if _, err := m.SolveContext(context.Background()); err == nil {
		t.Error("infeasible instance should error")
	}
}

// Property: on random block-structured instances, the block-by-block
// solve matches the exhaustive optimum, returns a valid cover, and
// agrees bit for bit in cost and counters with solving each block as a
// matrix of its own.
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
		got, err := m.SolveContext(context.Background())
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
		if cost, st := solveBlocksApart(t, m); cost != got.Cost || st != got.Stats {
			t.Fatalf("trial %d: blocks apart cost %v with %+v, in place %v with %+v",
				trial, cost, st, got.Cost, got.Stats)
		}
	}
}
