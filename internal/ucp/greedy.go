package ucp

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/num"
)

// SolveGreedy returns a feasible (not necessarily optimal) cover using
// the classical weight-per-newly-covered-row heuristic. It serves as a
// baseline for the exact solver and as its initial incumbent.
func (m *Matrix) SolveGreedy() (Solution, error) {
	return m.SolveGreedyContext(context.Background())
}

// SolveGreedyContext is SolveGreedy under cooperative cancellation: the
// context is polled once per chosen column (the greedy outer loop), and
// a cancellation mid-run returns the context's error wrapped — unlike
// the exact solver there is no feasible partial cover to hand back.
//
// Tie-breaks are epsilon-tolerant: two columns whose cost-per-new-row
// ratios differ only by float noise (num.Eq) are a tie, resolved toward
// the column covering more rows and then toward the lower index, so the
// chosen cover cannot depend on the order rounding errors accumulate.
func (m *Matrix) SolveGreedyContext(ctx context.Context) (Solution, error) {
	if !m.Feasible() {
		return Solution{}, ErrInfeasible
	}
	done := ctx.Done()
	covered := make([]bool, m.numRows)
	remaining := m.numRows
	var chosen []int
	var cost float64
	for remaining > 0 {
		if done != nil {
			select {
			case <-done:
				return Solution{}, fmt.Errorf("ucp: greedy interrupted: %w", ctx.Err())
			default:
			}
		}
		bestJ := -1
		bestRatio := math.Inf(1)
		bestNew := 0
		for j, c := range m.cols {
			newRows := 0
			for _, r := range c.Rows {
				if !covered[r] {
					newRows++
				}
			}
			if newRows == 0 {
				continue
			}
			ratio := c.Weight / float64(newRows)
			switch {
			case bestJ < 0:
				bestJ, bestRatio, bestNew = j, ratio, newRows
			case num.Eq(ratio, bestRatio):
				if newRows > bestNew {
					bestJ, bestRatio, bestNew = j, ratio, newRows
				}
			case num.Less(ratio, bestRatio):
				bestJ, bestRatio, bestNew = j, ratio, newRows
			}
		}
		if bestJ < 0 {
			return Solution{}, fmt.Errorf("ucp: greedy stalled with %d rows uncovered", remaining)
		}
		chosen = append(chosen, bestJ)
		cost += m.cols[bestJ].Weight
		for _, r := range m.cols[bestJ].Rows {
			if !covered[r] {
				covered[r] = true
				remaining--
			}
		}
	}
	sort.Ints(chosen)
	return Solution{Columns: chosen, Cost: cost, Optimal: false}, nil
}
