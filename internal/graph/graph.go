// Package graph is the hand-rolled directed-multigraph store underneath
// the CDCS data structures (constraint graphs and implementation graphs):
// the digraph itself, paths over it (Defs. 2.2-2.3) and DOT rendering.
// It is deliberately minimal and allocation-friendly: vertices and arcs
// are dense integer IDs and attributes live in caller-owned parallel
// slices.
//
// The package supports multi-arcs (several distinct arcs between the same
// ordered vertex pair), which the model needs: a module may communicate
// with another through multiple unidirectional channels, and an
// implementation graph may instantiate parallel links between the same
// two communication vertices (K-way arc duplication, Def. 2.7).
package graph

import "fmt"

// VertexID identifies a vertex of a Digraph. IDs are dense: the n-th
// added vertex has ID n-1.
type VertexID int

// ArcID identifies an arc of a Digraph. IDs are dense in insertion order.
type ArcID int

// Arc is a directed connection between two vertices.
type Arc struct {
	From, To VertexID
}

// Digraph is a directed multigraph. The zero value is an empty graph
// ready to use.
type Digraph struct {
	arcs []Arc
	out  [][]ArcID
	in   [][]ArcID
}

// NumVertices returns the number of vertices added so far.
func (g *Digraph) NumVertices() int { return len(g.out) }

// NumArcs returns the number of arcs added so far.
func (g *Digraph) NumArcs() int { return len(g.arcs) }

// AddVertex adds an isolated vertex and returns its ID.
func (g *Digraph) AddVertex() VertexID {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return VertexID(len(g.out) - 1)
}

// AddArc adds a directed arc from u to v and returns its ID. Parallel
// arcs are allowed; self-loops are rejected because neither constraint
// graphs (a port does not talk to itself) nor implementation graphs
// (a link connects two distinct endpoints) use them.
func (g *Digraph) AddArc(u, v VertexID) (ArcID, error) {
	if err := g.checkVertex(u); err != nil {
		return 0, err
	}
	if err := g.checkVertex(v); err != nil {
		return 0, err
	}
	if u == v {
		return 0, fmt.Errorf("graph: self-loop on vertex %d rejected", u)
	}
	id := ArcID(len(g.arcs))
	g.arcs = append(g.arcs, Arc{From: u, To: v})
	g.out[u] = append(g.out[u], id)
	g.in[v] = append(g.in[v], id)
	return id, nil
}

// Arc returns the endpoints of arc id.
func (g *Digraph) Arc(id ArcID) Arc {
	return g.arcs[id]
}

// HasVertex reports whether v is a valid vertex ID.
func (g *Digraph) HasVertex(v VertexID) bool {
	return v >= 0 && int(v) < len(g.out)
}

// HasArcID reports whether id is a valid arc ID.
func (g *Digraph) HasArcID(id ArcID) bool {
	return id >= 0 && int(id) < len(g.arcs)
}

// Out returns the IDs of arcs leaving v. The returned slice is owned by
// the graph and must not be modified.
func (g *Digraph) Out(v VertexID) []ArcID { return g.out[v] }

// In returns the IDs of arcs entering v. The returned slice is owned by
// the graph and must not be modified.
func (g *Digraph) In(v VertexID) []ArcID { return g.in[v] }

func (g *Digraph) checkVertex(v VertexID) error {
	if !g.HasVertex(v) {
		return fmt.Errorf("graph: vertex %d out of range [0, %d)", v, len(g.out))
	}
	return nil
}
