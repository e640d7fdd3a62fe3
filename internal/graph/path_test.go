package graph

import (
	"strings"
	"testing"
)

func linePath(t *testing.T) (*Digraph, Path) {
	t.Helper()
	g := NewDigraph(4)
	a0 := g.MustAddArc(0, 1)
	a1 := g.MustAddArc(1, 2)
	a2 := g.MustAddArc(2, 3)
	return g, Path{Vertices: []VertexID{0, 1, 2, 3}, Arcs: []ArcID{a0, a1, a2}}
}

func TestPathValidateOK(t *testing.T) {
	g, p := linePath(t)
	if err := p.Validate(g); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if p.Source() != 0 || p.Target() != 3 || p.Len() != 3 {
		t.Errorf("path accessors wrong: %v", p)
	}
	interior := p.Interior()
	if len(interior) != 2 || interior[0] != 1 || interior[1] != 2 {
		t.Errorf("Interior = %v", interior)
	}
}

func TestPathValidateErrors(t *testing.T) {
	g, p := linePath(t)
	cases := []struct {
		name string
		path Path
	}{
		{"empty", Path{}},
		{"length mismatch", Path{Vertices: p.Vertices, Arcs: p.Arcs[:1]}},
		{"repeated vertex", Path{Vertices: []VertexID{0, 1, 0}, Arcs: []ArcID{p.Arcs[0], p.Arcs[0]}}},
		{"wrong endpoints", Path{Vertices: []VertexID{0, 2}, Arcs: []ArcID{p.Arcs[0]}}},
		{"unknown vertex", Path{Vertices: []VertexID{0, 9}, Arcs: []ArcID{p.Arcs[0]}}},
		{"unknown arc", Path{Vertices: []VertexID{0, 1}, Arcs: []ArcID{99}}},
	}
	for _, c := range cases {
		if err := c.path.Validate(g); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestSubPathTo(t *testing.T) {
	g, p := linePath(t)
	sub, ok := p.SubPathTo(2)
	if !ok {
		t.Fatal("SubPathTo(2) should exist")
	}
	if err := sub.Validate(g); err != nil {
		t.Errorf("sub-path invalid: %v", err)
	}
	if sub.Target() != 2 || sub.Len() != 2 {
		t.Errorf("sub-path = %v", sub)
	}
	if _, ok := p.SubPathTo(99); ok {
		t.Error("SubPathTo of absent vertex should fail")
	}
}

func TestPathString(t *testing.T) {
	_, p := linePath(t)
	if got := p.String(); got != "0 -> 1 -> 2 -> 3" {
		t.Errorf("String = %q", got)
	}
}

func TestSimplePathsDiamond(t *testing.T) {
	g := NewDigraph(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 3)
	g.MustAddArc(0, 2)
	g.MustAddArc(2, 3)
	paths := g.SimplePaths(0, 3, nil, 0)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		if err := p.Validate(g); err != nil {
			t.Errorf("path %v invalid: %v", p, err)
		}
	}
}

func TestSimplePathsInteriorFilter(t *testing.T) {
	g := NewDigraph(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 3)
	g.MustAddArc(0, 2)
	g.MustAddArc(2, 3)
	// Forbid vertex 1 as interior: only the 0→2→3 path remains.
	paths := g.SimplePaths(0, 3, func(v VertexID) bool { return v != 1 }, 0)
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
	if paths[0].Vertices[1] != 2 {
		t.Errorf("surviving path = %v, want via vertex 2", paths[0])
	}
}

func TestSimplePathsLimit(t *testing.T) {
	// Complete-ish DAG with many paths; limit should cap the output.
	g := NewDigraph(6)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 6; v++ {
			g.MustAddArc(VertexID(u), VertexID(v))
		}
	}
	all := g.SimplePaths(0, 5, nil, 0)
	if len(all) != 16 { // 2^(n-2) paths from 0 to 5 over 4 optional interior vertices
		t.Errorf("got %d paths, want 16", len(all))
	}
	capped := g.SimplePaths(0, 5, nil, 3)
	if len(capped) != 3 {
		t.Errorf("limited enumeration returned %d, want 3", len(capped))
	}
}

func TestSimplePathsParallelArcs(t *testing.T) {
	g := NewDigraph(2)
	g.MustAddArc(0, 1)
	g.MustAddArc(0, 1)
	paths := g.SimplePaths(0, 1, nil, 0)
	if len(paths) != 2 {
		t.Errorf("parallel arcs should yield 2 distinct paths, got %d", len(paths))
	}
}

func TestSimplePathsDegenerate(t *testing.T) {
	g := NewDigraph(2)
	g.MustAddArc(0, 1)
	if got := g.SimplePaths(0, 0, nil, 0); got != nil {
		t.Errorf("src==dst should return nil, got %v", got)
	}
	if got := g.SimplePaths(5, 1, nil, 0); got != nil {
		t.Errorf("invalid src should return nil, got %v", got)
	}
}

func TestDotOutput(t *testing.T) {
	g := NewDigraph(2)
	g.MustAddArc(0, 1)
	dot := g.Dot(DotOptions{
		Name:        "test",
		VertexLabel: func(v VertexID) string { return "V" + string(rune('A'+int(v))) },
		ArcLabel:    func(ArcID) string { return "ch" },
	})
	for _, want := range []string{`digraph "test"`, `"VA"`, `"VB"`, `n0 -> n1`, `"ch"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestDotQuotesEmbeddedQuotes(t *testing.T) {
	g := NewDigraph(1)
	dot := g.Dot(DotOptions{VertexLabel: func(VertexID) string { return `a"b` }})
	if !strings.Contains(dot, `\"`) {
		t.Errorf("embedded quotes not escaped:\n%s", dot)
	}
}
