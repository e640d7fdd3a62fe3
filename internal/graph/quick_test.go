package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildRandom constructs a digraph from a quick-generated adjacency
// recipe: sizes are clamped to keep the checks fast.
func buildRandom(seed int64, nRaw, mRaw uint8) *Digraph {
	n := int(nRaw%12) + 1
	m := int(mRaw % 40)
	r := rand.New(rand.NewSource(seed))
	g := NewDigraph(n)
	for e := 0; e < m; e++ {
		u := VertexID(r.Intn(n))
		v := VertexID(r.Intn(n))
		if u != v {
			g.MustAddArc(u, v)
		}
	}
	return g
}

// Property: every arc's endpoints are valid and the in/out adjacency
// lists are mutually consistent.
func TestAdjacencyConsistencyProperty(t *testing.T) {
	f := func(seed int64, n, m uint8) bool {
		g := buildRandom(seed, n, m)
		for id := 0; id < g.NumArcs(); id++ {
			a := g.Arc(ArcID(id))
			if !g.HasVertex(a.From) || !g.HasVertex(a.To) {
				return false
			}
			foundOut, foundIn := false, false
			for _, o := range g.Out(a.From) {
				if o == ArcID(id) {
					foundOut = true
				}
			}
			for _, i := range g.In(a.To) {
				if i == ArcID(id) {
					foundIn = true
				}
			}
			if !foundOut || !foundIn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Σ out-degrees = Σ in-degrees = number of arcs.
func TestDegreeSumProperty(t *testing.T) {
	f := func(seed int64, n, m uint8) bool {
		g := buildRandom(seed, n, m)
		outSum, inSum := 0, 0
		for v := 0; v < g.NumVertices(); v++ {
			outSum += len(g.Out(VertexID(v)))
			inSum += len(g.In(VertexID(v)))
		}
		return outSum == g.NumArcs() && inSum == g.NumArcs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every path returned by SimplePaths validates and respects
// the interior filter.
func TestSimplePathsValidProperty(t *testing.T) {
	f := func(seed int64, n, m uint8, srcRaw, dstRaw uint8) bool {
		g := buildRandom(seed, n, m)
		nv := g.NumVertices()
		src := VertexID(int(srcRaw) % nv)
		dst := VertexID(int(dstRaw) % nv)
		allow := func(v VertexID) bool { return v%2 == 0 }
		for _, p := range g.SimplePaths(src, dst, allow, 50) {
			if err := p.Validate(g); err != nil {
				return false
			}
			if p.Source() != src || p.Target() != dst {
				return false
			}
			for _, v := range p.Interior() {
				if !allow(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
