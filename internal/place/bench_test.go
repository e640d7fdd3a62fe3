package place

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/workloads"
)

// BenchmarkOptimizeConvex measures the alternating-median fast path on
// the paper's winning candidate (pure length-priced WAN library).
func BenchmarkOptimizeConvex(b *testing.B) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	var ids []model.ChannelID
	for _, name := range []string{"a4", "a5", "a6"} {
		id, _ := cg.ChannelByName(name)
		ids = append(ids, id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(cg, lib, ids, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizePatternSearch measures the general multistart path
// (step-cost on-chip library, no convex shortcut) on MPEG4 mergings of
// two, three and four channels. One scratch serves every iteration, as
// one serves every merging a pricing lane places, so allocs/op counts
// the returned candidate only.
func BenchmarkOptimizePatternSearch(b *testing.B) {
	cg := workloads.MPEG4()
	lib := workloads.MPEG4Technology().Library()
	for _, ids := range [][]model.ChannelID{
		{1, 5},       // dma_mem + mc_mem, both into sdram
		{0, 1, 5},    // and ctrl_dma
		{0, 1, 4, 5}, // and idct_mc
	} {
		b.Run(fmt.Sprintf("k=%d", len(ids)), func(b *testing.B) {
			sc := &Scratch{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(cg, lib, ids, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
