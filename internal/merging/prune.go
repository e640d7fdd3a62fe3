package merging

import (
	"repro/internal/library"
	"repro/internal/num"
)

// The non-mergeability conditions. All are *sufficient* conditions for a
// set of arcs NOT to be k-way mergeable (Definition 3.1): triggering any
// of them proves that every merged implementation is dominated by
// point-to-point (or smaller-merging) implementations, so pruning is
// always sound. Failing to trigger proves nothing — the surviving
// candidate sets are priced later and the covering step decides.

// NotMergeablePair is Lemma 3.1: the pair {aᵢ, aⱼ} is not 2-way
// mergeable when d(aᵢ)+d(aⱼ) ≤ ‖p(uᵢ)−p(uⱼ)‖+‖p(vᵢ)−p(vⱼ)‖, i.e. when
// Γ(aᵢ,aⱼ) ≤ Δ(aᵢ,aⱼ): the detour through any shared path costs at
// least as much as the two direct implementations.
//
// The comparison is epsilon-tolerant (num.LessEq): both sides are sums
// of Euclidean distances, so a mathematical tie — common in symmetric
// layouts — may come out split by float rounding. Treating
// within-noise ties as the lemma's ≤ keeps the prune decision
// independent of summation order.
func NotMergeablePair(gamma, delta *SymMatrix, i, j int) bool {
	return num.LessEq(gamma.At(i, j), delta.At(i, j))
}

// NotMergeableRef is Lemma 3.2 with aᵣ as the reference arc: the set
// {arcs} ∪ {ref} is not k-way mergeable when
//
//	(k−1)·d(a_r) + Σᵢ d(aᵢ)  ≤  Σᵢ ‖p(uᵢ)−p(u_r)‖+‖p(vᵢ)−p(v_r)‖
//
// which in matrix form is Σᵢ Γ(aᵢ, a_r) ≤ Σᵢ Δ(aᵢ, a_r) over the
// non-reference arcs aᵢ.
// The row slices are taken once from the dense backing array (the
// matrices are symmetric, so row ref holds every (i, ref) entry) and
// indexed directly in the loop — the Lemma 3.2 test is the innermost
// operation of enumeration at k ≥ 3, and hoisting the ref·n offset out
// of the element accesses is measurable there. Summation order over
// arcs is unchanged, so the epsilon-tolerant comparison sees bit-equal
// operands.
func NotMergeableRef(gamma, delta *SymMatrix, arcs []int, ref int) bool {
	grow := gamma.row(ref)
	drow := delta.row(ref)
	var lhs, rhs float64
	for _, i := range arcs {
		if i == ref {
			continue
		}
		lhs += grow[i]
		rhs += drow[i]
	}
	return num.LessEq(lhs, rhs)
}

// NotMergeableBandwidth is Theorem 3.2: the set is not mergeable when
// Σ b(aᵢ) ≥ max over library links of b(l) + min over the set of b(aⱼ) —
// no library link could carry the merged traffic while beating the
// cheapest arc's stand-alone implementation.
func NotMergeableBandwidth(bw []float64, arcs []int, lib *library.Library) bool {
	if len(arcs) == 0 {
		return false
	}
	var sum float64
	min := bw[arcs[0]]
	for _, i := range arcs {
		sum += bw[i]
		if num.Below(bw[i], min) {
			min = bw[i]
		}
	}
	return num.GreaterEq(sum, lib.MaxBandwidth()+min)
}

// RefPolicy selects how the Lemma 3.2 reference arc is chosen when
// testing a k-set (k ≥ 3). Lemma 3.2 holds for any reference, so testing
// more references prunes more sets; both policies are sound.
type RefPolicy int

const (
	// MaxIndexRef, the zero value, tests only the highest-numbered arc,
	// matching an incremental implementation that extends sets by
	// appending arcs (the paper's Figure 2).
	MaxIndexRef RefPolicy = iota
	// AnyRef tests every arc of the set as the reference and prunes if
	// any test triggers — the strongest sound prune.
	AnyRef
)

// String names the policy.
func (p RefPolicy) String() string {
	switch p {
	case MaxIndexRef:
		return "max-index-ref"
	case AnyRef:
		return "any-ref"
	default:
		return "unknown"
	}
}

// NotMergeableSet applies Lemma 3.2 under the given reference policy.
func NotMergeableSet(gamma, delta *SymMatrix, arcs []int, policy RefPolicy) bool {
	if len(arcs) < 2 {
		return false
	}
	if len(arcs) == 2 {
		return NotMergeablePair(gamma, delta, arcs[0], arcs[1])
	}
	switch policy {
	case AnyRef:
		for _, ref := range arcs {
			if NotMergeableRef(gamma, delta, arcs, ref) {
				return true
			}
		}
		return false
	case MaxIndexRef:
		ref := arcs[0]
		for _, i := range arcs {
			if i > ref {
				ref = i
			}
		}
		return NotMergeableRef(gamma, delta, arcs, ref)
	default:
		return false
	}
}
