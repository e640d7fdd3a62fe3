package graph

import "fmt"

// Graph algorithms no production code calls: construction shorthands,
// cloning, path enumeration and traversal. They live here, with the
// tests that exercise them, so the production build no longer carries
// them.

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

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{
		arcs: make([]Arc, len(g.arcs)),
		out:  make([][]ArcID, len(g.out)),
		in:   make([][]ArcID, len(g.in)),
	}
	copy(c.arcs, g.arcs)
	for i := range g.out {
		c.out[i] = append([]ArcID(nil), g.out[i]...)
		c.in[i] = append([]ArcID(nil), g.in[i]...)
	}
	return c
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

// BFS visits every vertex reachable from src along arc directions, in
// breadth-first order, invoking visit for each. Returning false from
// visit stops the traversal.
func (g *Digraph) BFS(src VertexID, visit func(VertexID) bool) {
	if !g.HasVertex(src) {
		return
	}
	seen := make([]bool, g.NumVertices())
	queue := []VertexID{src}
	seen[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if !visit(v) {
			return
		}
		for _, id := range g.Out(v) {
			w := g.Arc(id).To
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
}

// DFS visits every vertex reachable from src along arc directions, in
// depth-first preorder, invoking visit for each. Returning false from
// visit stops the traversal.
func (g *Digraph) DFS(src VertexID, visit func(VertexID) bool) {
	if !g.HasVertex(src) {
		return
	}
	seen := make([]bool, g.NumVertices())
	stack := []VertexID{src}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		if !visit(v) {
			return
		}
		// Push in reverse so the first out-arc is visited first.
		out := g.Out(v)
		for i := len(out) - 1; i >= 0; i-- {
			w := g.Arc(out[i]).To
			if !seen[w] {
				stack = append(stack, w)
			}
		}
	}
}

// Reachable returns the set of vertices reachable from src (including
// src itself), as a boolean slice indexed by VertexID.
func (g *Digraph) Reachable(src VertexID) []bool {
	reach := make([]bool, g.NumVertices())
	g.BFS(src, func(v VertexID) bool {
		reach[v] = true
		return true
	})
	return reach
}

// WeaklyConnectedComponents partitions the vertices into components of
// the underlying undirected graph. The result maps each VertexID to a
// component index in [0, count).
func (g *Digraph) WeaklyConnectedComponents() (comp []int, count int) {
	n := g.NumVertices()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		queue := []VertexID{VertexID(s)}
		comp[s] = count
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			neighbors := func(ids []ArcID, pick func(Arc) VertexID) {
				for _, id := range ids {
					w := pick(g.Arc(id))
					if comp[w] < 0 {
						comp[w] = count
						queue = append(queue, w)
					}
				}
			}
			neighbors(g.Out(v), func(a Arc) VertexID { return a.To })
			neighbors(g.In(v), func(a Arc) VertexID { return a.From })
		}
		count++
	}
	return comp, count
}

// TopoSort returns the vertices in a topological order, or an error if
// the graph contains a directed cycle (Kahn's algorithm).
func (g *Digraph) TopoSort() ([]VertexID, error) {
	n := g.NumVertices()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.In(VertexID(v)))
	}
	var queue []VertexID
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	order := make([]VertexID, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, id := range g.Out(v) {
			w := g.Arc(id).To
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: directed cycle detected (%d of %d vertices ordered)", len(order), n)
	}
	return order, nil
}

// HasCycle reports whether the graph contains a directed cycle.
func (g *Digraph) HasCycle() bool {
	_, err := g.TopoSort()
	return err != nil
}
