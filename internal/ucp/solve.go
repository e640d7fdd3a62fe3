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
// with classical reductions, searching the instance's independent
// blocks one after another. It returns ErrInfeasible when the instance
// is infeasible (some row has no covering column). When ctx is canceled
// or its deadline passes mid-search, the solver stops at the next
// node-count checkpoint and returns its best incumbent — every block is
// seeded with its greedy cover, so once the instance is feasible a
// valid cover always exists — with Optimal=false and Interrupted=true
// instead of an error. Solution.LowerBound then bounds how far the
// incumbent can be from the true optimum.
func (m *Matrix) SolveContext(ctx context.Context) (Solution, error) {
	if !m.Feasible() {
		return Solution{}, ErrInfeasible
	}
	blocks := m.blocks()
	// Each block opens its own "ucp/solve" span and publishes its own
	// counters; several blocks are framed by one more span that records
	// the decomposition width.
	endSpan := func(...obs.Attr) {}
	if len(blocks) > 1 {
		ctx, endSpan = obs.Trace(ctx, "ucp/solve-decomposed",
			obs.Int("rows", m.numRows), obs.Int("cols", len(m.weight)), obs.Int("blocks", len(blocks)))
	}
	s := &search{
		m:      m,
		done:   ctx.Done(),
		events: obs.EventsFromContext(ctx),
		best:   make([]float64, len(blocks)),
		bound:  make([]float64, len(blocks)),
		counts: make([]int, m.numRows),
		slack:  make([]float64, len(m.weight)),
	}
	// Every block's greedy seed and root bound come first, so the first
	// incumbent reported covers the whole instance, and the bound stays
	// valid however early the search is interrupted. The seed is not
	// counted in Stats.Incumbents, which tallies improvements found by
	// branching — the deterministic counter the benchmark gate pins.
	seeds := make([][]int, len(blocks))
	for i, b := range blocks {
		seeds[i], s.best[i], _ = m.greedy(nil, b)
		s.bound[i] = s.dualAscentBound(b.rows, b.cols)
	}
	s.publish()

	var sol Solution
	for i, b := range blocks {
		blockCtx, endBlock := obs.Trace(ctx, "ucp/solve",
			obs.Int("rows", onesCount(b.rows)), obs.Int("cols", onesCount(b.cols)))
		s.block, s.stats, s.bestCols = i, Stats{}, seeds[i]
		// An unconditional root check makes an already-dead context
		// deterministic for any instance size (the in-search checks are
		// amortized and may never trigger on small trees).
		select {
		case <-s.done:
			s.interrupted = true
		default:
			rows, cols := s.frame(0)
			copy(rows, b.rows)
			copy(cols, b.cols)
			s.chosen = s.chosen[:0]
			s.branch(0, 0)
		}
		if !s.interrupted {
			s.bound[i] = s.best[i]
		}
		s.nodes += s.stats.Nodes
		sol.Columns = append(sol.Columns, s.bestCols...)
		sol.Stats.Nodes += s.stats.Nodes
		sol.Stats.Prunes += s.stats.Prunes
		sol.Stats.Reductions += s.stats.Reductions
		sol.Stats.Infeasible += s.stats.Infeasible
		sol.Stats.Incumbents += s.stats.Incumbents
		publishSolve(blockCtx, s.stats)
		endBlock(
			obs.Int("nodes", s.stats.Nodes),
			obs.Int("prunes", s.stats.Prunes),
			obs.Int("reductions", s.stats.Reductions),
			obs.Int("incumbents", s.stats.Incumbents),
			obs.Bool("interrupted", s.interrupted),
		)
	}
	sort.Ints(sol.Columns)
	sol.Cost, sol.LowerBound = s.totals()
	sol.Optimal, sol.Interrupted = !s.interrupted, s.interrupted
	endSpan(obs.Int("nodes", sol.Stats.Nodes), obs.Bool("interrupted", sol.Interrupted))
	return sol, nil
}

// publishSolve adds one block's counters to the registry carried by
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

// search is the branch-and-bound state of one solve. Its blocks are
// searched one after another and each search is single-threaded, so one
// set of frames and scratch serves the whole solve.
type search struct {
	m *Matrix
	// done is the context's cancellation channel (nil for a background
	// context, in which case no checks are performed at all).
	done <-chan struct{}
	// interrupted latches once cancellation is observed; every frame on
	// the recursion stack unwinds immediately after, and every later
	// block keeps its seed.
	interrupted bool
	// block is the index of the block being searched; stats and
	// bestCols are its counters and its incumbent cover.
	block    int
	stats    Stats
	bestCols []int
	// best[i] is block i's incumbent cost (its greedy seed until its
	// search improves on it). bound[i] is its root bound, replaced by
	// its optimum once its search finishes.
	best, bound []float64
	// nodes counts the nodes of the blocks already searched.
	nodes int
	// events receives an EventIncumbent for the seed and for every
	// improvement (nil — a no-op publisher — without a stream on the
	// context).
	events *obs.Events
	// chosen lists the columns chosen on the path to the current node.
	chosen []int
	// frames[d] holds the masks of the node at depth d: its uncovered
	// rows, then its choosable columns.
	frames [][]uint64
	// Reduction and bound scratch, never live across a recursion:
	// counts[r] is row r's number of choosable covers.
	counts []int
	order  []rowCount
	slack  []float64
}

// rowCount is a row and its number of choosable covering columns.
type rowCount struct{ r, n int }

// totals returns the block-ordered sums of every block's incumbent
// cost and of its bound, capped at that cost. They are the solution's
// Cost and LowerBound once every block has been searched.
func (s *search) totals() (cost, lb float64) {
	for i, c := range s.best {
		cost += c
		lb += math.Min(s.bound[i], c)
	}
	return cost, lb
}

// publish reports the whole instance's incumbent, its lower bound and
// the nodes explored so far.
func (s *search) publish() {
	if s.events == nil {
		return
	}
	cost, lb := s.totals()
	s.events.Publish(obs.Event{
		Type:       obs.EventIncumbent,
		Cost:       cost,
		LowerBound: lb,
		Gap:        cost - lb,
		Nodes:      s.nodes + s.stats.Nodes,
	})
}

// frame returns the masks of the node at depth d, allocated on first
// use.
func (s *search) frame(d int) (rows, cols []uint64) {
	if d == len(s.frames) {
		s.frames = append(s.frames, make([]uint64, s.m.rowWords+s.m.colWords))
	}
	return s.frames[d][:s.m.rowWords], s.frames[d][s.m.rowWords:]
}

// checkCancel polls the context every cancelCheckInterval nodes.
func (s *search) checkCancel() bool {
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

// branch explores the node at depth, whose frame holds its uncovered
// rows and choosable columns; the columns chosen on the path to it cost
// cost.
func (s *search) branch(depth int, cost float64) {
	s.stats.Nodes++
	if s.checkCancel() {
		return
	}
	rows, cols := s.frame(depth)

	// Apply reductions until a fixed point.
	for {
		changed, feasible, j := s.reduce(rows, cols)
		if !feasible {
			s.stats.Infeasible++
			return
		}
		if j >= 0 {
			cost += s.m.weight[j]
			s.chosen = append(s.chosen, j)
		}
		if num.NoBetter(cost, s.best[s.block]) {
			s.stats.Prunes++
			return
		}
		if !changed {
			break
		}
	}

	if onesCount(rows) == 0 {
		if num.Improves(cost, s.best[s.block]) {
			s.best[s.block] = cost
			s.bestCols = append([]int(nil), s.chosen...)
			s.stats.Incumbents++
			s.publish()
		}
		return
	}

	if num.NoBetter(cost+s.dualAscentBound(rows, cols), s.best[s.block]) {
		s.stats.Prunes++
		return
	}

	// Branch on the hardest row, the first the bound visited: fewest
	// choosable covering columns (at least two after the reductions),
	// lowest index on ties.
	var covering []int
	for wi, w := range s.m.rowMask[s.order[0].r] {
		for w &= cols[wi]; w != 0; w &= w - 1 {
			covering = append(covering, wi<<6|bits.TrailingZeros64(w))
		}
	}
	// Try cheapest-first for better incumbents early.
	sort.Slice(covering, func(a, b int) bool {
		return num.Below(s.m.weight[covering[a]], s.m.weight[covering[b]])
	})
	n := len(s.chosen)
	childRows, childCols := s.frame(depth + 1)
	for i, j := range covering {
		if s.interrupted {
			return
		}
		for wi, w := range s.m.colMask[j] {
			childRows[wi] = rows[wi] &^ w
		}
		copy(childCols, cols)
		// Columns earlier in the branching list are excluded in later
		// branches (they were already fully explored with this row).
		for _, k := range covering[:i+1] {
			clearBit(childCols, k)
		}
		s.chosen = append(s.chosen[:n], j)
		s.branch(depth+1, cost+s.m.weight[j])
	}
}

// reduce applies one round of essential-column extraction and column
// and row dominance to a node's masks in place. It reports whether
// anything changed, whether the subproblem remains feasible, and the
// essential column it chose (-1 for none).
func (s *search) reduce(rows, cols []uint64) (changed, feasible bool, essential int) {
	m := s.m
	// A row with a single choosable cover makes that column essential;
	// a row with none ends the subproblem.
	for wi, w := range rows {
		for ; w != 0; w &= w - 1 {
			r := wi<<6 | bits.TrailingZeros64(w)
			switch popcountAnd(m.rowMask[r], cols) {
			case 0:
				return false, false, -1
			case 1:
				j := -1
				for ci, c := range m.rowMask[r] {
					if c &= cols[ci]; c != 0 {
						j = ci<<6 | bits.TrailingZeros64(c)
						break
					}
				}
				s.stats.Reductions++
				for ri, c := range m.colMask[j] {
					rows[ri] &^= c
				}
				clearBit(cols, j)
				return true, true, j
			}
		}
	}

	// Column dominance: drop every column that covers no uncovered row,
	// then every column another choosable column dominates. A pass
	// drops only the column it visits, so each visits the columns
	// choosable when it began.
	for wi, w := range cols {
		for ; w != 0; w &= w - 1 {
			if j := wi<<6 | bits.TrailingZeros64(w); popcountAnd(m.colMask[j], rows) == 0 {
				clearBit(cols, j)
				s.stats.Reductions++
				changed = true
			}
		}
	}
	for wi, w := range cols {
		for ; w != 0; w &= w - 1 {
			if j := wi<<6 | bits.TrailingZeros64(w); m.columnDominated(j, rows, cols) {
				clearBit(cols, j)
				s.stats.Reductions++
				changed = true
			}
		}
	}

	// Row dominance: drop every row another uncovered row dominates. The
	// cover counts are taken once, after the column drops, and not
	// refreshed as rows drop.
	for wi, w := range rows {
		for ; w != 0; w &= w - 1 {
			r := wi<<6 | bits.TrailingZeros64(w)
			s.counts[r] = popcountAnd(m.rowMask[r], cols)
		}
	}
	for wi, w := range rows {
		for ; w != 0; w &= w - 1 {
			if r := wi<<6 | bits.TrailingZeros64(w); m.rowDominated(r, s.counts, rows, cols) {
				clearBit(rows, r)
				s.stats.Reductions++
				changed = true
			}
		}
	}
	return changed, true, -1
}

// columnDominated reports whether another choosable column b makes
// column a redundant: b covers every uncovered row a covers and weighs
// no more. Weights that differ only by float noise are a tie, broken by
// index so equal columns do not erase each other.
func (m *Matrix) columnDominated(a int, rows, cols []uint64) bool {
	wa := m.weight[a]
	for wi, w := range cols {
		for ; w != 0; w &= w - 1 {
			b := wi<<6 | bits.TrailingZeros64(w)
			if b != a && (num.Greater(wa, m.weight[b]) || num.Eq(wa, m.weight[b]) && a > b) &&
				maskSubsetUnder(m.colMask[a], m.colMask[b], rows) {
				return true
			}
		}
	}
	return false
}

// rowDominated reports whether another uncovered row r2 makes row r
// redundant: every choosable column covering r2 also covers r, so any
// cover of r2 covers r for free. counts holds each row's number of
// choosable covers; rows covered by as many columns are a tie, broken
// by index so mutually dominating rows do not erase each other.
func (m *Matrix) rowDominated(r int, counts []int, rows, cols []uint64) bool {
	for wi, w := range rows {
		for ; w != 0; w &= w - 1 {
			r2 := wi<<6 | bits.TrailingZeros64(w)
			if r2 != r && (counts[r2] < counts[r] || counts[r2] == counts[r] && r2 < r) &&
				maskSubsetUnder(m.rowMask[r2], m.rowMask[r], cols) {
				return true
			}
		}
	}
	return false
}

// dualAscentBound returns an admissible bound on the cost of covering
// rows with cols, in the spirit of the LPR-based lower bounds of the
// paper's reference [8] (Liao & Devadas): row duals u_r are raised
// until some covering column becomes tight; Σ u_r is dual feasible,
// hence a valid lower bound. Rows are visited hardest first (fewest
// choosable covers, index order on ties), the usual order that tends
// to tighten the bound, and s.order keeps that order.
func (s *search) dualAscentBound(rows, cols []uint64) float64 {
	m := s.m
	s.order = s.order[:0]
	for wi, w := range rows {
		for ; w != 0; w &= w - 1 {
			r := wi<<6 | bits.TrailingZeros64(w)
			s.order = append(s.order, rowCount{r, popcountAnd(m.rowMask[r], cols)})
		}
	}
	// Insertion sort: stable, allocation-free, and row counts are small.
	order := s.order
	for i := 1; i < len(order); i++ {
		for k := i; k > 0 && order[k].n < order[k-1].n; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	slack := s.slack
	for wi, w := range cols {
		for ; w != 0; w &= w - 1 {
			j := wi<<6 | bits.TrailingZeros64(w)
			slack[j] = m.weight[j]
		}
	}
	var bound float64
	for _, rc := range order {
		// Raise u_r by the minimum remaining slack among columns
		// covering r.
		raise := -1.0
		for wi, w := range m.rowMask[rc.r] {
			for w &= cols[wi]; w != 0; w &= w - 1 {
				j := wi<<6 | bits.TrailingZeros64(w)
				if raise < 0 || num.Below(slack[j], raise) {
					raise = slack[j]
				}
			}
		}
		if raise <= 0 {
			continue
		}
		bound += raise
		for wi, w := range m.rowMask[rc.r] {
			for w &= cols[wi]; w != 0; w &= w - 1 {
				slack[wi<<6|bits.TrailingZeros64(w)] -= raise
			}
		}
	}
	return bound
}
