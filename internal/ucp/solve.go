package ucp

import (
	"context"
	"math"
	"math/bits"
	"sort"

	"repro/internal/num"
	"repro/internal/obs"
)

// cancelCheckInterval is how many branch-and-bound nodes are explored
// between cooperative context checks. Checking the context involves a
// select on its Done channel; doing so once per node would dominate the
// cost of small subproblems, so the check is amortized over a power-of-
// two node interval (masked, not divided, in the hot loop).
const cancelCheckInterval = 256

// SolveContext finds a provably minimum-weight cover by branch-and-bound
// with classical reductions. It returns ErrInfeasible when the instance
// is infeasible (some row has no covering column). When ctx is canceled
// or its deadline passes mid-search, the solver stops at the next
// node-count checkpoint and returns its best incumbent — seeded
// from the greedy cover, so once the instance is feasible a valid cover
// always exists — with Optimal=false and Interrupted=true instead of an
// error. Solution.LowerBound then bounds how far the incumbent can be
// from the true optimum.
func (m *Matrix) SolveContext(ctx context.Context) (Solution, error) {
	if !m.Feasible() {
		return Solution{}, ErrInfeasible
	}
	ctx, endSpan := obs.Trace(ctx, "ucp/solve",
		obs.Int("rows", m.numRows), obs.Int("cols", len(m.cols)))
	s := &bbState{
		m:        m,
		bestCost: math.Inf(1),
		done:     ctx.Done(),
		events:   obs.EventsFromContext(ctx),
		actMask:  make([]uint64, m.rowWords),
		avMask:   make([]uint64, m.colWords),
	}
	// Seed the incumbent with the greedy solution so pruning bites early
	// and an interrupted solve always has a feasible answer.
	if greedy, err := m.SolveGreedy(); err == nil {
		s.bestCost = greedy.Cost
		s.bestCols = append([]int(nil), greedy.Columns...)
	}
	active := make([]bool, m.numRows)
	for r := range active {
		active[r] = true
	}
	avail := make([]bool, len(m.cols))
	for j := range avail {
		avail[j] = true
	}
	// The root lower bound is computed before branching: it stays valid
	// for the whole instance no matter where the search is interrupted.
	rootBound := s.combinedBound(active, avail)
	s.rootBound = rootBound
	// The greedy seed is the search's first incumbent, so the stream
	// reports it like any later improvement (with Nodes=0). It is not
	// counted in Stats.Incumbents, which tallies improvements found by
	// branching — the deterministic counter the benchmark gate pins.
	if s.events != nil && s.bestCols != nil {
		gap := s.bestCost - rootBound
		if gap < 0 {
			gap = 0
		}
		s.events.Publish(obs.Event{
			Type:       obs.EventIncumbent,
			Cost:       s.bestCost,
			LowerBound: rootBound,
			Gap:        gap,
		})
	}
	// An unconditional root check makes an already-dead context
	// deterministic for any instance size (the in-search checks are
	// amortized and may never trigger on small trees).
	select {
	case <-s.done:
		s.interrupted = true
	default:
		s.branch(active, avail, nil, 0)
	}
	sort.Ints(s.bestCols)
	sol := Solution{
		Columns:     s.bestCols,
		Cost:        s.bestCost,
		Optimal:     !s.interrupted,
		Interrupted: s.interrupted,
		Stats:       s.stats,
	}
	if sol.Optimal {
		sol.LowerBound = sol.Cost
	} else {
		sol.LowerBound = math.Min(rootBound, sol.Cost)
	}
	publishSolve(ctx, sol.Stats)
	endSpan(
		obs.Int("nodes", sol.Stats.Nodes),
		obs.Int("prunes", sol.Stats.Prunes),
		obs.Int("reductions", sol.Stats.Reductions),
		obs.Int("incumbents", sol.Stats.Incumbents),
		obs.Bool("interrupted", sol.Interrupted),
	)
	return sol, nil
}

// publishSolve adds one solve's counters to the registry carried by
// ctx (no-op without one). The branch-and-bound accumulates its Stats
// in plain struct fields — the search loop never touches an
// instrument — and the totals are published here in one batch.
func publishSolve(ctx context.Context, st Stats) {
	m := obs.FromContext(ctx).Metrics()
	if m == nil {
		return
	}
	m.Counter("ucp/solves").Add(1)
	m.Counter("ucp/nodes").Add(int64(st.Nodes))
	m.Counter("ucp/prunes").Add(int64(st.Prunes))
	m.Counter("ucp/reductions").Add(int64(st.Reductions))
	m.Counter("ucp/infeasible_subproblems").Add(int64(st.Infeasible))
	m.Counter("ucp/incumbents").Add(int64(st.Incumbents))
}

type bbState struct {
	m        *Matrix
	bestCost float64
	bestCols []int
	stats    Stats
	// done is the context's cancellation channel (nil for a background
	// context, in which case no checks are performed at all).
	done <-chan struct{}
	// interrupted latches once cancellation is observed; every frame on
	// the recursion stack unwinds immediately after.
	interrupted bool
	// events receives an EventIncumbent on every incumbent improvement
	// (nil — a no-op publisher — without a stream on the context). The
	// publish sits inside the improvement branch, never on the per-node
	// path, so a disabled stream costs one nil comparison per
	// improvement.
	events *obs.Events
	// rootBound is the instance's root relaxation, giving each
	// incumbent event an optimality-gap bound.
	rootBound float64
	// actMask/avMask are scratch words for the reduction scans: the
	// active-row and available-column sets rendered as bitmasks so
	// essential extraction and both dominance passes run on word AND /
	// popcount operations against the matrix's coverage masks. The
	// search is single-threaded and each reduce call finishes with the
	// scratch before recursing, so one buffer per dimension suffices
	// for the whole solve.
	actMask []uint64
	avMask  []uint64
}

// maskFromBools renders a bool set as a bitmask into dst (zeroed first).
func maskFromBools(dst []uint64, set []bool) []uint64 {
	for i := range dst {
		dst[i] = 0
	}
	for i, ok := range set {
		if ok {
			dst[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return dst
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

// checkCancel polls the context every cancelCheckInterval nodes.
func (s *bbState) checkCancel() bool {
	if s.interrupted {
		return true
	}
	if s.done != nil && s.stats.Nodes&(cancelCheckInterval-1) == 0 {
		select {
		case <-s.done:
			s.interrupted = true
		default:
		}
	}
	return s.interrupted
}

// branch explores the subproblem where `active` rows remain uncovered
// and `avail` columns may still be chosen; `chosen` columns cost `cost`.
func (s *bbState) branch(active, avail []bool, chosen []int, cost float64) {
	s.stats.Nodes++
	if s.checkCancel() {
		return
	}

	// Apply reductions until a fixed point. Reductions mutate copies.
	active = append([]bool(nil), active...)
	avail = append([]bool(nil), avail...)
	chosen = append([]int(nil), chosen...)

	for {
		changed, feasible, extraCost, extraCols := s.reduce(active, avail)
		if !feasible {
			s.stats.Infeasible++
			return
		}
		cost += extraCost
		chosen = append(chosen, extraCols...)
		if num.NoBetter(cost, s.bestCost) {
			s.stats.Prunes++
			return
		}
		if !changed {
			break
		}
	}

	// All rows covered?
	remaining := 0
	for _, on := range active {
		if on {
			remaining++
		}
	}
	if remaining == 0 {
		if num.Improves(cost, s.bestCost) {
			s.bestCost = cost
			s.bestCols = append([]int(nil), chosen...)
			s.stats.Incumbents++
			if s.events != nil {
				gap := cost - s.rootBound
				if gap < 0 {
					gap = 0
				}
				s.events.Publish(obs.Event{
					Type:       obs.EventIncumbent,
					Cost:       cost,
					LowerBound: s.rootBound,
					Gap:        gap,
					Nodes:      s.stats.Nodes,
				})
			}
		}
		return
	}

	// Lower bound: the stronger of the independent-set and dual-ascent
	// bounds.
	if num.NoBetter(cost+s.combinedBound(active, avail), s.bestCost) {
		s.stats.Prunes++
		return
	}

	// Branch on the hardest row: fewest available covering columns.
	row := s.hardestRow(active, avail)
	if row < 0 {
		// Unreachable after a feasible reduction fixed point (every
		// active row has a cover), but counted rather than silently
		// dropped so a logic regression shows up in the stats.
		s.stats.Infeasible++
		return
	}
	var covering []int
	for j, ok := range avail {
		if !ok {
			continue
		}
		if s.m.covers(j, row) {
			covering = append(covering, j)
		}
	}
	// Try cheapest-first for better incumbents early.
	sort.Slice(covering, func(a, b int) bool {
		return num.Below(s.m.cols[covering[a]].Weight, s.m.cols[covering[b]].Weight)
	})
	for i, j := range covering {
		if s.interrupted {
			return
		}
		childActive := append([]bool(nil), active...)
		childAvail := append([]bool(nil), avail...)
		for _, r := range s.m.cols[j].Rows {
			childActive[r] = false
		}
		childAvail[j] = false
		// Columns earlier in the branching list are excluded in later
		// branches (they were already fully explored with this row).
		for _, prev := range covering[:i] {
			childAvail[prev] = false
		}
		s.branch(childActive, childAvail, append(chosen, j), cost+s.m.cols[j].Weight)
	}
}

// reduce applies one round of essential-column extraction and column
// dominance to the subproblem in place. It reports whether anything
// changed, whether the subproblem remains feasible, and any columns
// forced into the solution (with their total weight).
func (s *bbState) reduce(active, avail []bool) (changed, feasible bool, extraCost float64, extraCols []int) {
	m := s.m
	// Render the entry sets as bitmasks once. Neither set changes before
	// an early return, so the masks stay valid through essential
	// extraction and column dominance (which only reads active via
	// actMask and snapshots its covers up front, exactly like the
	// pre-flattening slice snapshots did).
	avMask := maskFromBools(s.avMask, avail)
	actMask := maskFromBools(s.actMask, active)

	// Count covering columns per active row; find essentials. The count
	// is a popcount of rowMask[r] ∩ avail; when it is exactly one, the
	// essential column is the lone surviving bit.
	for r := 0; r < m.numRows; r++ {
		if !active[r] {
			continue
		}
		count := popcountAnd(m.rowMask[r], avMask)
		if count == 0 {
			return false, false, 0, nil
		}
		if count == 1 {
			// Essential column: must be chosen.
			j := -1
			for wi, w := range m.rowMask[r] {
				if w &= avMask[wi]; w != 0 {
					j = wi<<6 + bits.TrailingZeros64(w)
					break
				}
			}
			s.stats.Reductions++
			extraCols = append(extraCols, j)
			extraCost += m.cols[j].Weight
			for _, rr := range m.cols[j].Rows {
				active[rr] = false
			}
			avail[j] = false
			return true, true, extraCost, extraCols
		}
	}

	// Column dominance: drop columns whose active cover is a subset of
	// another no-heavier column's. The active covers are never
	// materialized — colMask[j] ∩ actMask is compared word-wise — and
	// actMask stays a faithful snapshot throughout since this pass only
	// flips avail bits.
	type colInfo struct {
		j int
		w float64
	}
	var infos []colInfo
	for j, ok := range avail {
		if !ok {
			continue
		}
		if popcountAnd(m.colMask[j], actMask) == 0 {
			// Useless column in this subproblem.
			avail[j] = false
			s.stats.Reductions++
			changed = true
			continue
		}
		infos = append(infos, colInfo{j: j, w: m.cols[j].Weight})
	}
	for _, a := range infos {
		if !avail[a.j] {
			continue
		}
		for _, b := range infos {
			if a.j == b.j || !avail[b.j] || !avail[a.j] {
				continue
			}
			// a dominated by b: cover(a) ⊆ cover(b), weight(a) ≥ weight(b).
			// Weights that differ only by float noise are a tie, broken by
			// index so equal columns do not erase each other.
			if num.Greater(a.w, b.w) || (num.Eq(a.w, b.w) && a.j > b.j) {
				if maskSubsetUnder(m.colMask[a.j], m.colMask[b.j], actMask) {
					avail[a.j] = false
					s.stats.Reductions++
					changed = true
					break
				}
			}
		}
	}

	// Row dominance: if every available column covering row r2 also
	// covers row r1 (r1's covering set ⊇ r2's), any cover of r2 covers
	// r1 for free, so r1 can be deactivated. The cover sets are
	// rowMask[r] ∩ avail, snapshotted here (after the column-dominance
	// drops) by re-rendering avMask; like the pre-flattening version the
	// snapshot is deliberately not refreshed as rows deactivate.
	avMask = maskFromBools(s.avMask, avail)
	var activeRows []int
	coverCount := make([]int, m.numRows)
	for r := 0; r < m.numRows; r++ {
		if active[r] {
			activeRows = append(activeRows, r)
			coverCount[r] = popcountAnd(m.rowMask[r], avMask)
		}
	}
	for _, r1 := range activeRows {
		if !active[r1] {
			continue
		}
		for _, r2 := range activeRows {
			if r1 == r2 || !active[r1] || !active[r2] {
				continue
			}
			// Drop r1 when covers(r2) ⊆ covers(r1); tie-break by index
			// so mutually dominating rows do not erase each other.
			if coverCount[r2] < coverCount[r1] ||
				(coverCount[r2] == coverCount[r1] && r2 < r1) {
				if maskSubsetUnder(m.rowMask[r2], m.rowMask[r1], avMask) {
					active[r1] = false
					s.stats.Reductions++
					changed = true
					break
				}
			}
		}
	}
	return changed, true, extraCost, extraCols
}

// lowerBound computes an admissible bound for the remaining subproblem:
// greedily pick pairwise independent active rows (no available column
// covers two of them) and sum, for each, the cheapest covering column.
func (s *bbState) lowerBound(active, avail []bool) float64 {
	m := s.m
	blocked := make([]bool, m.numRows)
	var bound float64
	// Visit rows in order of increasing cheapest-cover weight descending
	// — picking expensive rows first strengthens the bound.
	type rowInfo struct {
		r    int
		minW float64
	}
	var rows []rowInfo
	for r := 0; r < m.numRows; r++ {
		if !active[r] {
			continue
		}
		minW := math.Inf(1)
		for j, ok := range avail {
			if !ok {
				continue
			}
			if m.covers(j, r) && num.Below(m.cols[j].Weight, minW) {
				minW = m.cols[j].Weight
			}
		}
		rows = append(rows, rowInfo{r: r, minW: minW})
	}
	sort.Slice(rows, func(a, b int) bool { return num.Stronger(rows[a].minW, rows[b].minW) })
	for _, ri := range rows {
		if blocked[ri.r] {
			continue
		}
		bound += ri.minW
		// Block every row sharing a column with ri.r.
		for j, ok := range avail {
			if !ok {
				continue
			}
			if !m.covers(j, ri.r) {
				continue
			}
			for _, rr := range m.cols[j].Rows {
				if active[rr] {
					blocked[rr] = true
				}
			}
		}
	}
	return bound
}

// hardestRow returns the active row with the fewest available covering
// columns, or -1 if no active row exists.
func (s *bbState) hardestRow(active, avail []bool) int {
	best := -1
	bestCount := math.MaxInt32
	for r := 0; r < s.m.numRows; r++ {
		if !active[r] {
			continue
		}
		count := 0
		for j, ok := range avail {
			if ok && s.m.covers(j, r) {
				count++
			}
		}
		if count > 0 && count < bestCount {
			best, bestCount = r, count
		}
	}
	return best
}
