package graph

import (
	"fmt"
	"testing"
)

// The DOT renderer is part of the deterministic-output contract the
// mapiter analyzer guards: two renders of the same graph must match
// byte for byte, and the emission order is vertex/arc ID order.
func TestDotGoldenAndByteStable(t *testing.T) {
	g := NewDigraph(3)
	a0, _ := g.AddArc(0, 1)
	a1, _ := g.AddArc(1, 2)
	_, _ = g.AddArc(2, 0)

	opt := DotOptions{
		Name:        "cdcs",
		VertexLabel: func(v VertexID) string { return fmt.Sprintf("v%d", v) },
		ArcLabel: func(a ArcID) string {
			switch a {
			case a0:
				return "fast"
			case a1:
				return "slow"
			}
			return ""
		},
	}

	want := `digraph "cdcs" {
  n0 [label="v0"];
  n1 [label="v1"];
  n2 [label="v2"];
  n0 -> n1 [label="fast"];
  n1 -> n2 [label="slow"];
  n2 -> n0;
}
`
	got := g.Dot(opt)
	if got != want {
		t.Errorf("Dot output drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
	for i := 0; i < 10; i++ {
		if again := g.Dot(opt); again != got {
			t.Fatalf("run %d: Dot output differs between identical runs:\n%s\nvs\n%s", i, got, again)
		}
	}
}
