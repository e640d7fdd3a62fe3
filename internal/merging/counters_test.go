package merging

import (
	"testing"

	"repro/internal/model"
)

// fullRescanMaxArity is the original O(candidates×k) definition of
// MaxArityOf, kept as the oracle for the precomputed map.
func fullRescanMaxArity(r *Result, ch model.ChannelID) int {
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

// TestMaxArityMapMatchesRescan: the per-channel max-arity map filled in
// during enumeration must agree with a full rescan of ByK, for every
// channel, across policies and instance shapes.
func TestMaxArityMapMatchesRescan(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		cg := clusterInstance(t, n)
		for _, policy := range []RefPolicy{AnyRef, MaxIndexRef} {
			res, err := Enumerate(cg, testLib(), Options{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				ch := model.ChannelID(i)
				if got, want := res.MaxArityOf(ch), fullRescanMaxArity(res, ch); got != want {
					t.Errorf("n=%d policy=%v channel %d: MaxArityOf=%d, rescan=%d",
						n, policy, i, got, want)
				}
			}
		}
	}
}

// TestTotalCandidatesRunningCounter: the running counter must equal the
// sum over ByK at every instance size, including the zero-candidate
// case.
func TestTotalCandidatesRunningCounter(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8} {
		cg := clusterInstance(t, n)
		res, err := Enumerate(cg, testLib(), Options{Policy: MaxIndexRef})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, sets := range res.ByK {
			sum += len(sets)
		}
		if got := res.TotalCandidates(); got != sum {
			t.Errorf("n=%d: TotalCandidates=%d, ByK sum=%d", n, got, sum)
		}
	}
}

// TestHandAssembledResultFallbacks: a Result built by hand (no
// enumeration bookkeeping) must still answer TotalCandidates and
// MaxArityOf by scanning ByK.
func TestHandAssembledResultFallbacks(t *testing.T) {
	r := &Result{ByK: map[int][][]model.ChannelID{
		2: {{0, 1}, {1, 2}},
		3: {{0, 1, 2}},
	}}
	if got := r.TotalCandidates(); got != 3 {
		t.Errorf("TotalCandidates=%d, want 3", got)
	}
	if got := r.MaxArityOf(1); got != 3 {
		t.Errorf("MaxArityOf(1)=%d, want 3", got)
	}
	if got := r.MaxArityOf(3); got != 0 {
		t.Errorf("MaxArityOf(3)=%d, want 0", got)
	}
}
