package graph

// Graph algorithms no production code calls: construction shorthands
// and path enumeration. They live here, with the tests that exercise
// them, so the production build no longer carries them.

// NewDigraph returns a graph pre-sized for n vertices (all isolated).
func NewDigraph(n int) *Digraph {
	g := &Digraph{}
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	return g
}

// MustAddArc is AddArc for programmatic construction where the arguments
// are known valid; it panics on error.
func (g *Digraph) MustAddArc(u, v VertexID) ArcID {
	id, err := g.AddArc(u, v)
	if err != nil {
		panic(err)
	}
	return id
}

// SubPathTo returns the prefix of p up to (and including) vertex v,
// mirroring sub(q, vⱼ) of Definition 2.3. It returns false if v is not
// on the path.
func (p Path) SubPathTo(v VertexID) (Path, bool) {
	for i, u := range p.Vertices {
		if u == v {
			return Path{
				Vertices: p.Vertices[:i+1],
				Arcs:     p.Arcs[:i],
			}, true
		}
	}
	return Path{}, false
}

// SimplePaths enumerates all simple paths from src to dst whose interior
// vertices all satisfy allowInterior (src and dst are exempt). The
// enumeration stops early once limit paths have been found; limit <= 0
// means unlimited. This powers the Definition 2.4 satisfaction checker,
// where interior vertices must be communication vertices.
func (g *Digraph) SimplePaths(src, dst VertexID, allowInterior func(VertexID) bool, limit int) []Path {
	if !g.HasVertex(src) || !g.HasVertex(dst) || src == dst {
		return nil
	}
	var out []Path
	onPath := make([]bool, g.NumVertices())
	var vertStack []VertexID
	var arcStack []ArcID

	var rec func(v VertexID) bool // returns false to abort (limit hit)
	rec = func(v VertexID) bool {
		onPath[v] = true
		vertStack = append(vertStack, v)
		defer func() {
			onPath[v] = false
			vertStack = vertStack[:len(vertStack)-1]
		}()
		for _, id := range g.Out(v) {
			w := g.Arc(id).To
			if onPath[w] {
				continue
			}
			if w == dst {
				p := Path{
					Vertices: append(append([]VertexID(nil), vertStack...), dst),
					Arcs:     append(append([]ArcID(nil), arcStack...), id),
				}
				out = append(out, p)
				if limit > 0 && len(out) >= limit {
					return false
				}
				continue
			}
			if allowInterior != nil && !allowInterior(w) {
				continue
			}
			arcStack = append(arcStack, id)
			ok := rec(w)
			arcStack = arcStack[:len(arcStack)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	rec(src)
	return out
}
