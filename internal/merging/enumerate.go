package merging

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/obs"
)

// cancelCheckInterval is how many tested subsets pass between
// cooperative context polls; a power of two so the hot enumeration
// loop masks instead of divides.
const cancelCheckInterval = 1024

// Options configures candidate enumeration.
type Options struct {
	// Policy selects the Lemma 3.2 reference-arc policy. The zero value
	// is MaxIndexRef, matching the paper's incremental Figure 2
	// implementation; AnyRef is the strongest sound prune. Both are
	// sound, so the synthesis optimum is identical either way.
	Policy RefPolicy
	// MaxK caps the merging arity considered; zero means |A|.
	MaxK int
	// DisableLemma31, DisableLemma32 and DisableTheorem32 switch off the
	// respective prunes for ablation studies. Theorem 3.1 elimination is
	// implied by the per-level candidate sets and switched off via
	// DisableTheorem31.
	DisableLemma31   bool
	DisableLemma32   bool
	DisableTheorem31 bool
	DisableTheorem32 bool
}

// Result is the outcome of candidate enumeration.
type Result struct {
	// ByK maps arity k (≥ 2) to the candidate arc sets (each sorted by
	// channel ID).
	ByK map[int][][]model.ChannelID
	// EliminatedAt records, per channel, the level k at which Theorem
	// 3.1 removed it (0 = never removed).
	EliminatedAt map[model.ChannelID]int
	// SetsTested counts k-subsets examined across all levels.
	SetsTested int
	// SetsPruned counts subsets rejected by the lemma/theorem tests.
	SetsPruned int
	// PrunedLemma31, PrunedLemma32 and PrunedTheorem32 break SetsPruned
	// down by the rule that fired (Theorem 3.2's bandwidth test runs
	// first, so a subset failing several tests is counted once, under
	// the first). Theorem 3.1 removals are counted by EliminatedAt.
	PrunedLemma31   int
	PrunedLemma32   int
	PrunedTheorem32 int
	// Interrupted is true when the context deadline or cancellation
	// stopped enumeration; ByK holds everything accepted so far.
	Interrupted bool

	// total is the running candidate count across all levels,
	// maintained as subsets are accepted so TotalCandidates needs no
	// rescan of ByK.
	total int
	// maxArity caches, per channel, the largest k at which it appears
	// in a candidate set, filled in as candidates are accepted.
	maxArity map[model.ChannelID]int
}

// TotalCandidates returns the number of candidate sets across all k.
func (r *Result) TotalCandidates() int {
	if r.total > 0 || r.maxArity != nil {
		return r.total
	}
	// Hand-assembled Results (tests, external callers) lack the running
	// counter; fall back to summing the map.
	total := 0
	for _, sets := range r.ByK {
		total += len(sets)
	}
	return total
}

// Count returns the number of candidates of arity k.
func (r *Result) Count(k int) int { return len(r.ByK[k]) }

// MaxArityOf returns the largest k at which the channel appears in a
// candidate set (0 if it appears in none).
func (r *Result) MaxArityOf(ch model.ChannelID) int {
	if r.maxArity != nil {
		return r.maxArity[ch]
	}
	// Hand-assembled Results lack the precomputed map; fall back to the
	// full scan.
	max := 0
	for k, sets := range r.ByK {
		for _, set := range sets {
			for _, c := range set {
				if c == ch && k > max {
					max = k
				}
			}
		}
	}
	return max
}

// Enumerate runs the candidate-generation loop of Figure 2: level k = 2
// uses Lemma 3.1 on the Γ and Δ matrices; levels k ≥ 3 use Lemma 3.2
// under the configured reference policy plus the Theorem 3.2 bandwidth
// test; after each level, arcs appearing in no candidate of that level
// are eliminated from all higher levels (Theorem 3.1 — their Γ row and
// column are removed).
func Enumerate(cg *model.ConstraintGraph, lib *library.Library, opt Options) (*Result, error) {
	return EnumerateContext(context.Background(), cg, lib, opt)
}

// EnumerateContext is Enumerate under cooperative cancellation: the
// subset loop polls the context every cancelCheckInterval tested sets
// and, on deadline or cancel, returns the candidates accepted so far
// with Result.Interrupted set instead of an error. The partial set is
// always usable — every returned candidate passed the full prune tests.
func EnumerateContext(ctx context.Context, cg *model.ConstraintGraph, lib *library.Library, opt Options) (*Result, error) {
	n := cg.NumChannels()
	if n == 0 {
		return nil, fmt.Errorf("merging: constraint graph has no channels")
	}
	ctx, endSpan := obs.Trace(ctx, "merging/enumerate", obs.Int("channels", n))
	events := obs.EventsFromContext(ctx)
	gamma := Gamma(cg)
	delta := Delta(cg)
	bw := BandwidthVector(cg)

	maxK := opt.MaxK
	if maxK <= 0 || maxK > n {
		maxK = n
	}

	res := &Result{
		ByK:          make(map[int][][]model.ChannelID),
		EliminatedAt: make(map[model.ChannelID]int),
		maxArity:     make(map[model.ChannelID]int),
	}

	// Theorem 3.1 bookkeeping on flat words: live holds the arcs still
	// eligible for this level's mergings, inCand the arcs seen in some
	// candidate of the current level. Elimination at a level end is one
	// word-wise intersection instead of rebuilding an index slice, and
	// the live members are materialized (ascending, so the subset
	// odometer walks the exact same order as the map-era code) into a
	// scratch slice reused across levels.
	live := newBitset(n)
	live.fill(n)
	inCand := newBitset(n)
	activeScratch := make([]int, 0, n)
	done := ctx.Done()

	for k := 2; k <= maxK && live.count() >= k; k++ {
		// A per-level check makes an already-dead context deterministic
		// even when no level tests enough subsets to reach the
		// amortized in-loop check.
		if done != nil {
			select {
			case <-done:
				res.Interrupted = true
			default:
			}
			if res.Interrupted {
				break
			}
		}
		inCand.reset()
		active := live.appendMembers(activeScratch[:0])
		var sets [][]model.ChannelID

		forEachSubset(active, k, func(subset []int) bool {
			res.SetsTested++
			if done != nil && res.SetsTested&(cancelCheckInterval-1) == 0 {
				select {
				case <-done:
					res.Interrupted = true
					return false
				default:
				}
			}
			pruned := false
			if !opt.DisableTheorem32 && NotMergeableBandwidth(bw, subset, lib) {
				pruned = true
				res.PrunedTheorem32++
			}
			if !pruned {
				if k == 2 {
					if !opt.DisableLemma31 && NotMergeablePair(gamma, delta, subset[0], subset[1]) {
						pruned = true
						res.PrunedLemma31++
					}
				} else {
					if !opt.DisableLemma32 && NotMergeableSet(gamma, delta, subset, opt.Policy) {
						pruned = true
						res.PrunedLemma32++
					}
				}
			}
			if pruned {
				res.SetsPruned++
				return true
			}
			ids := make([]model.ChannelID, k)
			for i, a := range subset {
				ids[i] = model.ChannelID(a)
			}
			sets = append(sets, ids)
			res.total++
			for _, a := range subset {
				inCand.set(a)
				// Levels run in increasing k, so the latest level a
				// channel appears in is its max arity.
				res.maxArity[model.ChannelID(a)] = k
			}
			return true
		})
		res.ByK[k] = sets
		if events != nil {
			// Per-arity progress: one event per completed level, so a
			// watcher sees the combinatorial frontier advance instead of
			// a silent Step 1b. Published outside the subset loop — a
			// disabled stream costs one nil comparison per level.
			events.Publish(obs.Event{
				Type:       obs.EventEnumLevel,
				K:          k,
				Candidates: len(sets),
				SetsTested: res.SetsTested,
			})
		}
		if res.Interrupted {
			// The partial level is kept: every accepted set passed the
			// prunes, so pricing it can only improve the architecture.
			break
		}
		if len(sets) == 0 {
			// No k-way candidates at all: by Theorem 3.1 no arc can join
			// a larger merging either; the loop terminates.
			break
		}
		if !opt.DisableTheorem31 {
			// Theorem 3.1 row deletion as a bitmask: arcs in no candidate
			// of this level leave the live set in one AND over the word
			// array; their Γ/Δ rows are never visited again because the
			// next level's subset odometer only walks live members.
			for _, a := range active {
				if !inCand.has(a) && res.EliminatedAt[model.ChannelID(a)] == 0 {
					res.EliminatedAt[model.ChannelID(a)] = k
				}
			}
			live.intersect(inCand)
		}
	}
	res.publishMetrics(ctx)
	endSpan(
		obs.Int("setsTested", res.SetsTested),
		obs.Int("setsPruned", res.SetsPruned),
		obs.Int("candidates", res.total),
		obs.Bool("interrupted", res.Interrupted),
	)
	return res, nil
}

// publishMetrics adds the enumeration's counters to the registry
// carried by ctx (no-op without one). The counters are accumulated in
// plain Result fields during the subset loop — the hot path never
// touches an instrument — and published once here, so a disabled sink
// costs nothing and an enabled one costs one batch of atomic adds.
func (r *Result) publishMetrics(ctx context.Context) {
	m := obs.FromContext(ctx).Metrics()
	if m == nil {
		return
	}
	m.Counter("merging/sets_tested").Add(int64(r.SetsTested))
	m.Counter("merging/sets_pruned").Add(int64(r.SetsPruned))
	m.Counter("merging/pruned_lemma31").Add(int64(r.PrunedLemma31))
	m.Counter("merging/pruned_lemma32").Add(int64(r.PrunedLemma32))
	m.Counter("merging/pruned_theorem32").Add(int64(r.PrunedTheorem32))
	m.Counter("merging/theorem31_rows_deleted").Add(int64(len(r.EliminatedAt)))
	m.Counter("merging/candidates").Add(int64(r.TotalCandidates()))
	// Per-arity candidate counts; collect-then-sort keeps the counter
	// creation order deterministic (snapshots sort by name anyway).
	ks := make([]int, 0, len(r.ByK))
	for k := range r.ByK {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		m.Counter(fmt.Sprintf("merging/candidates/k%d", k)).Add(int64(len(r.ByK[k])))
	}
}

// forEachSubset invokes fn on every k-subset of items (in lexicographic
// order of positions). fn returning false aborts the enumeration.
func forEachSubset(items []int, k int, fn func([]int) bool) {
	n := len(items)
	if k > n || k <= 0 {
		return
	}
	idx := make([]int, k)
	subset := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		for i, pos := range idx {
			subset[i] = items[pos]
		}
		if !fn(subset) {
			return
		}
		// Advance the combination odometer.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
