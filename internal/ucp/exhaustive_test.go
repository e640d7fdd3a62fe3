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
	n := len(m.cols)
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
		var cost float64
		covered := make([]bool, m.numRows)
		count := 0
		for j := 0; j < n; j++ {
			if mask&(1<<j) == 0 {
				continue
			}
			cost += m.cols[j].Weight
			for _, r := range m.cols[j].Rows {
				if !covered[r] {
					covered[r] = true
					count++
				}
			}
		}
		if count != m.numRows || num.NoBetter(cost, bestCost) {
			continue
		}
		bestCost = cost
		best = best[:0]
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				best = append(best, j)
			}
		}
	}
	return Solution{Columns: append([]int(nil), best...), Cost: bestCost, Optimal: true, LowerBound: bestCost}, nil
}

// CostOf returns the summed weight of a column set.
func (m *Matrix) CostOf(columns []int) float64 {
	var sum float64
	for _, j := range columns {
		sum += m.cols[j].Weight
	}
	return sum
}

// Covers reports whether the column set covers every row.
func (m *Matrix) Covers(columns []int) bool {
	covered := make([]bool, m.numRows)
	for _, j := range columns {
		for _, r := range m.cols[j].Rows {
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
