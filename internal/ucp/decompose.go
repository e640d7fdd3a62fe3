package ucp

import (
	"context"
	"sort"

	"repro/internal/obs"
)

// Covering instances from the synthesis flow often decompose: channels
// in different regions share no merging candidates, so the covering
// matrix splits into independent blocks (connected components of the
// bipartite row–column incidence graph). Solving the blocks separately
// is exponentially cheaper than branching over the union.

// components labels every row with a block id and returns, per block,
// the rows and the columns touching them.
func (m *Matrix) components() (blocks [][2][]int) {
	// Union-find over rows.
	parent := make([]int, m.numRows)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, c := range m.cols {
		for i := 1; i < len(c.Rows); i++ {
			union(c.Rows[0], c.Rows[i])
		}
	}
	rowsOf := make(map[int][]int)
	for r := 0; r < m.numRows; r++ {
		root := find(r)
		rowsOf[root] = append(rowsOf[root], r)
	}
	colsOf := make(map[int][]int)
	for j, c := range m.cols {
		if len(c.Rows) == 0 {
			continue
		}
		root := find(c.Rows[0])
		colsOf[root] = append(colsOf[root], j)
	}
	var roots []int
	for root := range rowsOf {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	for _, root := range roots {
		blocks = append(blocks, [2][]int{rowsOf[root], colsOf[root]})
	}
	return blocks
}

// SolveDecomposedContext splits the instance into independent blocks,
// solves each with the branch-and-bound, and concatenates the solutions.
// For a single-block instance it is identical to SolveContext. Blocks
// solved before the deadline are exact; blocks interrupted mid-search
// contribute their best incumbent (see SolveContext), so the combined
// solution is always a valid cover. Because no column spans two blocks,
// the combined solution is optimal when every block is, and the summed
// LowerBound is admissible for the whole instance.
func (m *Matrix) SolveDecomposedContext(ctx context.Context) (Solution, error) {
	if !m.Feasible() {
		return Solution{}, ErrInfeasible
	}
	blocks := m.components()
	if len(blocks) <= 1 {
		return m.SolveContext(ctx)
	}
	// Each block's SolveContext opens its own child span and publishes
	// its own counters; this span only frames them and records the
	// decomposition width.
	ctx, endSpan := obs.Trace(ctx, "ucp/solve-decomposed",
		obs.Int("rows", m.numRows), obs.Int("cols", len(m.cols)), obs.Int("blocks", len(blocks)))
	var out Solution
	out.Optimal = true
	for _, b := range blocks {
		rows, cols := b[0], b[1]
		// Build the sub-instance with remapped row indices.
		rowIndex := make(map[int]int, len(rows))
		for i, r := range rows {
			rowIndex[r] = i
		}
		sub := NewMatrix(len(rows))
		for _, j := range cols {
			c := m.cols[j]
			mapped := make([]int, len(c.Rows))
			for i, r := range c.Rows {
				mapped[i] = rowIndex[r]
			}
			sub.MustAddColumn(Column{Rows: mapped, Weight: c.Weight, Label: c.Label})
		}
		sol, err := sub.SolveContext(ctx)
		if err != nil {
			return Solution{}, err
		}
		for _, sj := range sol.Columns {
			out.Columns = append(out.Columns, cols[sj])
		}
		out.Cost += sol.Cost
		out.LowerBound += sol.LowerBound
		if sol.Interrupted {
			out.Interrupted = true
			out.Optimal = false
		}
		out.Stats.Nodes += sol.Stats.Nodes
		out.Stats.Prunes += sol.Stats.Prunes
		out.Stats.Reductions += sol.Stats.Reductions
		out.Stats.Infeasible += sol.Stats.Infeasible
		out.Stats.Incumbents += sol.Stats.Incumbents
	}
	sort.Ints(out.Columns)
	endSpan(obs.Int("nodes", out.Stats.Nodes), obs.Bool("interrupted", out.Interrupted))
	return out, nil
}
