package baseline

import (
	"testing"

	"repro/internal/workloads"
)

func BenchmarkGreedyAgglomerativeWAN(b *testing.B) {
	cg := workloads.WAN()
	lib := workloads.WANLibrary()
	for i := 0; i < b.N; i++ {
		if _, _, err := Synthesize(cg, lib); err != nil {
			b.Fatal(err)
		}
	}
}
