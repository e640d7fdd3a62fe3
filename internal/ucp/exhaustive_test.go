package ucp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/num"
)

// SolveExhaustiveContext enumerates all 2^n column subsets and returns
// the true optimum: the oracle the branch-and-bound and its bounds are
// checked against. It refuses instances with more than 24 columns and
// polls ctx every cancelCheckInterval subset masks; a cancellation
// mid-run returns the context's error wrapped.
func (m *Matrix) SolveExhaustiveContext(ctx context.Context) (Solution, error) {
	n := len(m.weight)
	if n > 24 {
		return Solution{}, fmt.Errorf("ucp: exhaustive solver limited to 24 columns, got %d", n)
	}
	if !m.Feasible() {
		return Solution{}, ErrInfeasible
	}
	done := ctx.Done()
	bestCost := math.Inf(1)
	var best []int
	for mask := 0; mask < 1<<n; mask++ {
		if done != nil && mask&(cancelCheckInterval-1) == 0 {
			select {
			case <-done:
				return Solution{}, fmt.Errorf("ucp: exhaustive interrupted: %w", ctx.Err())
			default:
			}
		}
		var cols []int
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				cols = append(cols, j)
			}
		}
		if cost := m.CostOf(cols); m.Covers(cols) && num.Improves(cost, bestCost) {
			bestCost, best = cost, cols
		}
	}
	return Solution{Columns: best, Cost: bestCost, Optimal: true, LowerBound: bestCost}, nil
}

// CostOf returns the summed weight of a column set.
func (m *Matrix) CostOf(columns []int) float64 {
	var sum float64
	for _, j := range columns {
		sum += m.weight[j]
	}
	return sum
}

// Covers reports whether the column set covers every row.
func (m *Matrix) Covers(columns []int) bool {
	uncovered := m.whole().rows
	for _, j := range columns {
		for wi, w := range m.colMask[j] {
			uncovered[wi] &^= w
		}
	}
	return onesCount(uncovered) == 0
}
