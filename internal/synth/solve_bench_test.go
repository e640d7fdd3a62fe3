package synth

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/library"
	"repro/internal/model"
)

// BenchmarkSolveSoc12 times the exact covering search on the committed
// 12-channel SoC fixture, the one committed instance whose run is
// dominated by covering rather than by pricing. The fixture is priced
// once, outside the timer (the greedy solver keeps that set-up short),
// and every iteration solves the run's covering matrix.
func BenchmarkSolveSoc12(b *testing.B) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "..", "scripts", "testdata", name))
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	cg, err := model.DecodeConstraintGraph(read("soc12.graph.json"))
	if err != nil {
		b.Fatal(err)
	}
	lib, err := library.Decode(read("soc12.lib.json"))
	if err != nil {
		b.Fatal(err)
	}
	_, rep, err := Synthesize(cg, lib, Options{Solver: GreedySolver})
	if err != nil {
		b.Fatal(err)
	}
	m, err := coverMatrix(cg.NumChannels(), rep.Candidates)
	if err != nil {
		b.Fatal(err)
	}
	nodes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := m.SolveContext(context.Background())
		if err != nil || !sol.Optimal {
			b.Fatalf("solve: optimal %v, err %v", sol.Optimal, err)
		}
		nodes += sol.Stats.Nodes
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
