// Package ucp implements the weighted Unate Covering Problem solver used
// by the global step of the CDCS algorithm: rows are constraint arcs,
// columns are candidate arc implementations with their costs as weights,
// and the optimum implementation graph corresponds to a minimum-weight
// set of columns covering all rows.
//
// The exact solver is a branch-and-bound in the classical
// Espresso/Scherzo style (the paper defers to such solvers, refs [4, 8]):
// essential-column extraction, row and column dominance reductions, and
// a maximal-independent-set lower bound. A greedy heuristic and an
// exhaustive solver are provided as baselines and cross-checks.
package ucp

import (
	"fmt"
	"math"
	"sort"
)

// Column is one candidate: the set of rows it covers and its weight.
type Column struct {
	// Rows lists the covered row indices; order is irrelevant and
	// duplicates are ignored.
	Rows []int
	// Weight is the column's cost; must be non-negative and finite.
	Weight float64
	// Label is an optional human-readable identifier carried through to
	// solutions.
	Label string
}

// Matrix is a weighted unate covering instance with rows 0..NumRows-1.
//
// Beside the column list it maintains two flat bitmask views of the
// coverage relation, built incrementally by AddColumn and consumed by
// the solver's hot loops: colMask[j] holds the rows column j covers
// (one bit per row), rowMask[r] holds the columns covering row r (one
// bit per column). Membership, cover-count and subset tests — the
// innermost operations of essential extraction, dominance reduction and
// both lower bounds — become single-word AND/popcount operations
// instead of binary searches over sorted row slices.
type Matrix struct {
	numRows int
	cols    []Column
	// rowWords is the word length of every colMask (fixed by numRows);
	// colWords is the current word length of every rowMask (grows as
	// columns are added, all rows kept at equal length so mask pairs
	// compare word-by-word).
	rowWords int
	colWords int
	colMask  [][]uint64
	rowMask  [][]uint64
}

// NewMatrix creates an instance with the given number of rows.
func NewMatrix(numRows int) *Matrix {
	m := &Matrix{numRows: numRows, rowWords: (numRows + 63) / 64}
	m.rowMask = make([][]uint64, numRows)
	return m
}

// AddColumn adds a candidate column and returns its index. Row indices
// are deduplicated and sorted; out-of-range rows, empty covers, and
// invalid weights are rejected.
func (m *Matrix) AddColumn(c Column) (int, error) {
	if len(c.Rows) == 0 {
		return 0, fmt.Errorf("ucp: column %q covers no rows", c.Label)
	}
	if c.Weight < 0 || math.IsNaN(c.Weight) || math.IsInf(c.Weight, 0) {
		return 0, fmt.Errorf("ucp: column %q has invalid weight %g", c.Label, c.Weight)
	}
	rows := append([]int(nil), c.Rows...)
	sort.Ints(rows)
	dedup := rows[:0]
	for _, r := range rows {
		if r < 0 || r >= m.numRows {
			return 0, fmt.Errorf("ucp: column %q covers out-of-range row %d", c.Label, r)
		}
		if len(dedup) > 0 && dedup[len(dedup)-1] == r {
			continue
		}
		dedup = append(dedup, r)
	}
	c.Rows = dedup
	m.cols = append(m.cols, c)
	j := len(m.cols) - 1

	// Extend the bitmask views. Column masks are fixed-width (rows are
	// known up front); row masks grow a word whenever the column count
	// crosses a 64-boundary, and every row is kept at the same width so
	// subset tests can walk mask pairs word-by-word.
	cm := make([]uint64, m.rowWords)
	for _, r := range dedup {
		cm[r>>6] |= 1 << (uint(r) & 63)
	}
	m.colMask = append(m.colMask, cm)
	if w := j>>6 + 1; w > m.colWords {
		m.colWords = w
		for r := range m.rowMask {
			m.rowMask[r] = append(m.rowMask[r], 0)
		}
	}
	for _, r := range dedup {
		m.rowMask[r][j>>6] |= 1 << (uint(j) & 63)
	}
	return j, nil
}

// covers reports whether column j covers row r (a single bit test).
func (m *Matrix) covers(j, r int) bool {
	return m.colMask[j][r>>6]&(1<<(uint(r)&63)) != 0
}

// MustAddColumn is AddColumn that panics on error.
func (m *Matrix) MustAddColumn(c Column) int {
	j, err := m.AddColumn(c)
	if err != nil {
		panic(err)
	}
	return j
}

// Feasible reports whether every row is covered by at least one column.
func (m *Matrix) Feasible() bool {
	covered := make([]bool, m.numRows)
	for _, c := range m.cols {
		for _, r := range c.Rows {
			covered[r] = true
		}
	}
	for _, ok := range covered {
		if !ok {
			return false
		}
	}
	return true
}

// Solution is a set of selected columns covering all rows.
type Solution struct {
	// Columns are indices into the original matrix, sorted ascending.
	Columns []int
	// Cost is the summed weight of the selected columns.
	Cost float64
	// Optimal is true when the solver proved optimality.
	Optimal bool
	// Interrupted is true when a context deadline or cancellation cut
	// the branch-and-bound short; Columns then hold the best incumbent
	// found (never worse than the greedy cover the search is seeded
	// with) and Optimal is false.
	Interrupted bool
	// LowerBound is an admissible lower bound on the optimal cost of
	// this instance: equal to Cost when Optimal, and otherwise the root
	// relaxation bound (the stronger of the independent-set and
	// dual-ascent bounds), so Cost − LowerBound bounds the optimality
	// gap of an interrupted solve. The greedy solver leaves it zero.
	LowerBound float64
	// Stats carries solver counters.
	Stats Stats
}

// GapBound returns an upper bound on how far Cost can be above the true
// optimum (zero when the solve was proved optimal).
func (s Solution) GapBound() float64 { return s.Cost - s.LowerBound }

// Stats counts solver effort.
type Stats struct {
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Prunes is the number of subtrees cut by the lower bound.
	Prunes int
	// Reductions is the number of essential/dominance simplifications
	// applied.
	Reductions int
	// Infeasible is the number of subproblems abandoned because some
	// row lost its last covering column (previously dropped silently).
	Infeasible int
	// Incumbents is the number of times the branch-and-bound improved
	// its incumbent solution (the greedy seed does not count; a solve
	// whose seed is already optimal reports zero).
	Incumbents int
}
