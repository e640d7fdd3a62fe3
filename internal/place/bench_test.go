package place

import (
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
// (fixed-cost on-chip library, no convex shortcut).
func BenchmarkOptimizePatternSearch(b *testing.B) {
	cg := workloads.MPEG4()
	lib := workloads.MPEG4Technology().Library()
	ids := []model.ChannelID{1, 5} // dma_mem + mc_mem, both into sdram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(cg, lib, ids, nil); err != nil {
			b.Fatal(err)
		}
	}
}
