package ucp

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

// Quick-generated covering instances: the recipe bytes drive matrix
// shape, covers and weights, so testing/quick explores the structure
// space while the checks compare solvers.

func matrixFromRecipe(recipe []byte) *Matrix {
	if len(recipe) < 4 {
		return nil
	}
	rows := int(recipe[0]%5) + 1
	cols := int(recipe[1]%8) + 1
	m := NewMatrix(rows)
	idx := 2
	next := func() byte {
		if idx >= len(recipe) {
			idx = 2
		}
		b := recipe[idx]
		idx++
		return b
	}
	for j := 0; j < cols; j++ {
		var cover []int
		mask := next()
		for r := 0; r < rows; r++ {
			if mask&(1<<uint(r)) != 0 {
				cover = append(cover, r)
			}
		}
		if len(cover) == 0 {
			cover = []int{int(next()) % rows}
		}
		weight := 0.25 + float64(next()%40)/4
		m.MustAddColumn(Column{Rows: cover, Weight: weight})
	}
	return m
}

// Property: the exact solver matches the exhaustive optimum and always
// returns a valid cover, for quick-generated instances.
func TestQuickSolveMatchesExhaustive(t *testing.T) {
	f := func(recipe []byte) bool {
		m := matrixFromRecipe(recipe)
		if m == nil || !m.Feasible() {
			return true
		}
		want, err := m.SolveExhaustiveContext(context.Background())
		if err != nil {
			return false
		}
		got, err := m.SolveContext(context.Background())
		if err != nil {
			return false
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9 {
			return false
		}
		return m.Covers(got.Columns) && math.Abs(m.CostOf(got.Columns)-got.Cost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: solving the blocks in place agrees bit for bit, in cost
// and counters, with solving each block as a matrix of its own.
func TestQuickDecomposedAgrees(t *testing.T) {
	f := func(recipe []byte) bool {
		m := matrixFromRecipe(recipe)
		if m == nil || !m.Feasible() {
			return true
		}
		sol, err := m.SolveContext(context.Background())
		if err != nil {
			return false
		}
		cost, st := solveBlocksApart(t, m)
		return cost == sol.Cost && st == sol.Stats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: greedy is feasible and never below the optimum.
func TestQuickGreedyAdmissible(t *testing.T) {
	f := func(recipe []byte) bool {
		m := matrixFromRecipe(recipe)
		if m == nil || !m.Feasible() {
			return true
		}
		opt, err := m.SolveContext(context.Background())
		if err != nil {
			return false
		}
		g, err := m.SolveGreedy()
		if err != nil {
			return false
		}
		return m.Covers(g.Columns) && g.Cost >= opt.Cost-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
