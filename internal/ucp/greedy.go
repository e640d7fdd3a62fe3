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
// baseline for the exact solver, whose blocks it seeds.
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
	chosen, cost, ok := m.greedy(ctx.Done(), m.whole())
	if !ok {
		return Solution{}, fmt.Errorf("ucp: greedy interrupted: %w", ctx.Err())
	}
	sort.Ints(chosen)
	return Solution{Columns: chosen, Cost: cost}, nil
}

// greedy covers b's rows with b's columns, in the order chosen, and
// reports false if done closed first (a nil done never does). The
// callers have checked feasibility, so some column always covers a row
// still uncovered.
func (m *Matrix) greedy(done <-chan struct{}, b block) (chosen []int, cost float64, ok bool) {
	uncovered := append([]uint64(nil), b.rows...)
	cols := appendOnes(nil, b.cols)
	for remaining := onesCount(uncovered); remaining > 0; {
		if done != nil {
			select {
			case <-done:
				return nil, 0, false
			default:
			}
		}
		bestJ := -1
		bestRatio := math.Inf(1)
		bestNew := 0
		for _, j := range cols {
			newRows := popcountAnd(m.colMask[j], uncovered)
			if newRows == 0 {
				continue
			}
			ratio := m.weight[j] / float64(newRows)
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
		chosen = append(chosen, bestJ)
		cost += m.weight[bestJ]
		remaining -= bestNew
		for wi, w := range m.colMask[bestJ] {
			uncovered[wi] &^= w
		}
	}
	return chosen, cost, true
}
