// Package ucp implements the weighted Unate Covering Problem solver used
// by the global step of the CDCS algorithm: rows are constraint arcs,
// columns are candidate arc implementations with their costs as weights,
// and the optimum implementation graph corresponds to a minimum-weight
// set of columns covering all rows.
//
// The exact solver is a branch-and-bound in the classical
// Espresso/Scherzo style (the paper defers to such solvers, refs [4, 8]):
// essential-column extraction, row and column dominance reductions, and
// a dual-ascent lower bound on the LP relaxation (ref [8]). A greedy
// heuristic seeds the search and serves as a baseline.
package ucp

import (
	"fmt"
	"math"
	"math/bits"
)

// Column is one candidate: the set of rows it covers and its weight.
type Column struct {
	// Rows lists the covered row indices; order is irrelevant and
	// duplicates are ignored.
	Rows []int
	// Weight is the column's cost; must be non-negative and finite.
	Weight float64
}

// Matrix is a weighted unate covering instance with rows 0..NumRows-1.
//
// The coverage relation is held as two flat bitmask views built by
// AddColumn: colMask[j] holds the rows column j covers (one bit per
// row), rowMask[r] holds the columns covering row r (one bit per
// column). A subproblem of the search is a pair of masks of the same
// shapes (uncovered rows, choosable columns), so membership,
// cover-count and subset tests are word AND/popcount operations.
type Matrix struct {
	numRows int
	// weight[j] is column j's weight.
	weight []float64
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

// AddColumn adds a candidate column and returns its index. Out-of-range
// rows, empty covers, and invalid weights are rejected.
func (m *Matrix) AddColumn(c Column) (int, error) {
	j := len(m.weight)
	if len(c.Rows) == 0 {
		return 0, fmt.Errorf("ucp: column %d covers no rows", j)
	}
	if c.Weight < 0 || math.IsNaN(c.Weight) || math.IsInf(c.Weight, 0) {
		return 0, fmt.Errorf("ucp: column %d has invalid weight %g", j, c.Weight)
	}
	cm := make([]uint64, m.rowWords)
	for _, r := range c.Rows {
		if r < 0 || r >= m.numRows {
			return 0, fmt.Errorf("ucp: column %d covers out-of-range row %d", j, r)
		}
		setBit(cm, r)
	}
	m.weight = append(m.weight, c.Weight)
	m.colMask = append(m.colMask, cm)

	// Row masks grow a word whenever the column count crosses a
	// 64-boundary, and every row is kept at the same width so subset
	// tests can walk mask pairs word-by-word.
	if w := j>>6 + 1; w > m.colWords {
		m.colWords = w
		for r := range m.rowMask {
			m.rowMask[r] = append(m.rowMask[r], 0)
		}
	}
	for _, r := range c.Rows {
		setBit(m.rowMask[r], j)
	}
	return j, nil
}

// Feasible reports whether every row is covered by at least one column.
func (m *Matrix) Feasible() bool {
	for _, cols := range m.rowMask {
		if onesCount(cols) == 0 {
			return false
		}
	}
	return true
}

// appendOnes appends the indices of mask's set bits to dst, ascending.
func appendOnes(dst []int, mask []uint64) []int {
	for wi, w := range mask {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, wi<<6|bits.TrailingZeros64(w))
		}
	}
	return dst
}

// setBit sets bit i of mask.
func setBit(mask []uint64, i int) { mask[i>>6] |= 1 << (uint(i) & 63) }

// clearBit clears bit i of mask.
func clearBit(mask []uint64, i int) { mask[i>>6] &^= 1 << (uint(i) & 63) }

// onesCount returns the number of set bits in mask.
func onesCount(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
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
	// this instance: equal to Cost when Optimal, and otherwise the sum,
	// over the instance's independent blocks, of each block's optimum
	// where its search finished and of its root dual-ascent bound,
	// capped at its incumbent, where it did not. Cost − LowerBound
	// bounds the optimality gap of an interrupted solve. The greedy
	// solver leaves it zero.
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

// popcountAnd returns |a ∩ b| for equal-length masks.
func popcountAnd(a, b []uint64) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// maskSubsetUnder reports whether a∩ctx ⊆ b (ctx restricts both sides:
// x∩ctx ⊆ y∩ctx ⟺ x∩ctx ⊆ y).
func maskSubsetUnder(a, b, ctx []uint64) bool {
	for i, w := range a {
		if w&ctx[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}
