// The race detector's instrumentation changes allocation counts
// (slices.Grow's zero-filled tail is allocated on its own), so this
// allocation test builds only without it.

//go:build !race

package place

import (
	"testing"

	"repro/internal/model"
	"repro/internal/workloads"
)

// regrowthBudget bounds the allocations a fresh Scratch spends
// regrowing its buffers when it meets arities 2, 3, 4 and 5 in turn,
// as a pricing lane meets mergings in enumeration order, over one that
// meets the 5-merging first and grows every buffer once. Amortized
// growth regrows a buffer at arities 3 and 5 only, and the access
// curves keep their own buffers across a regrowth: 12 allocations on
// MPEG4. Growing every buffer to exactly each new arity would cost 26,
// which the budget rejects.
const regrowthBudget = 12

// TestScratchRegrowthAmortized places one MPEG4 merging of each arity
// from 2 to 5 on a fresh Scratch, smallest first and largest first,
// and bounds the difference in allocations by regrowthBudget.
func TestScratchRegrowthAmortized(t *testing.T) {
	cg := workloads.MPEG4()
	lib := workloads.MPEG4Technology().Library()
	ids := []model.ChannelID{1, 5, 0, 4, 2} // each prefix of two or more is a feasible merging
	optimize := func(sc *Scratch, k int) {
		if _, err := Optimize(cg, lib, ids[:k], sc); err != nil {
			t.Fatal(err)
		}
	}
	ascending := testing.AllocsPerRun(5, func() {
		sc := &Scratch{}
		for k := 2; k <= 5; k++ {
			optimize(sc, k)
		}
	})
	largestFirst := testing.AllocsPerRun(5, func() {
		sc := &Scratch{}
		optimize(sc, 5)
		for k := 2; k <= 4; k++ {
			optimize(sc, k)
		}
	})
	if extra := ascending - largestFirst; extra > regrowthBudget {
		t.Errorf("arities 2..5 in turn allocate %.0f, %.0f more than largest first (%.0f), budget %d",
			ascending, extra, largestFirst, regrowthBudget)
	}
}
