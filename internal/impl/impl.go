// Package impl implements the implementation graph of Definitions
// 2.3–2.5: the concrete communication architecture produced by the
// synthesis flow. Its vertex set is the constraint graph's port vertices
// (the bijection χ) extended with communication vertices — instances of
// library nodes (the surjection ψ) — and every arc is an instance of a
// library link (the surjection φ).
//
// Each constraint arc a is implemented by a set of paths P(a) from χ(u)
// to χ(v) passing only through communication vertices; the package
// provides a full Definition 2.4 satisfaction checker plus the cost
// function of Definition 2.5.
package impl

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/model"
)

// VertexKind distinguishes the two vertex classes of Definition 2.4.
type VertexKind int

const (
	// Computational vertices correspond bijectively to constraint-graph
	// ports; they carry no cost.
	Computational VertexKind = iota
	// Communication vertices are instances of library nodes inserted by
	// the synthesis transformations (segmentation, duplication, merging).
	Communication
)

// Vertex is a vertex of the implementation graph.
type Vertex struct {
	Kind VertexKind
	// Port is the constraint-graph port this vertex mirrors
	// (Computational vertices only).
	Port model.PortID
	// Node is the library node instantiated here (Communication only).
	Node library.Node
	// Position is the vertex position; for computational vertices it
	// equals the port position (χ preserves positions).
	Position geom.Point
	// Name is a human-readable identifier.
	Name string
}

// Graph is an implementation graph under construction or under
// verification.
type Graph struct {
	cg       *model.ConstraintGraph
	g        *graph.Digraph
	vertices []Vertex
	links    []library.Link // indexed by ArcID: the φ mapping
	implOf   map[model.ChannelID][]graph.Path
}

// New creates an implementation graph for the given constraint graph,
// pre-populated with one computational vertex per port (same IDs, same
// positions — the bijection χ is the identity on indices).
func New(cg *model.ConstraintGraph) *Graph {
	ig := &Graph{
		cg:     cg,
		g:      &graph.Digraph{},
		implOf: make(map[model.ChannelID][]graph.Path),
	}
	for i := 0; i < cg.NumPorts(); i++ {
		id := model.PortID(i)
		p := cg.Port(id)
		ig.g.AddVertex()
		ig.vertices = append(ig.vertices, Vertex{
			Kind:     Computational,
			Port:     id,
			Position: p.Position,
			Name:     p.Name,
		})
	}
	return ig
}

// ConstraintGraph returns the constraint graph this implementation
// belongs to.
func (ig *Graph) ConstraintGraph() *model.ConstraintGraph { return ig.cg }

// Digraph exposes the underlying directed graph (read-only use).
func (ig *Graph) Digraph() *graph.Digraph { return ig.g }

// NumVertices returns the total number of vertices (computational plus
// communication).
func (ig *Graph) NumVertices() int { return len(ig.vertices) }

// NumCommVertices returns the number of communication vertices.
func (ig *Graph) NumCommVertices() int { return len(ig.vertices) - ig.cg.NumPorts() }

// NumLinks returns the number of instantiated links (arcs).
func (ig *Graph) NumLinks() int { return ig.g.NumArcs() }

// Vertex returns the vertex with the given ID.
func (ig *Graph) Vertex(v graph.VertexID) Vertex { return ig.vertices[v] }

// Link returns the library link instantiated on the given arc.
func (ig *Graph) Link(a graph.ArcID) library.Link { return ig.links[a] }

// AddCommVertex inserts a communication vertex instantiating the given
// library node at the given position, returning its ID.
func (ig *Graph) AddCommVertex(node library.Node, pos geom.Point, name string) (graph.VertexID, error) {
	if !pos.IsFinite() {
		return 0, fmt.Errorf("impl: communication vertex %q at non-finite position %v", name, pos)
	}
	id := ig.g.AddVertex()
	if name == "" {
		name = fmt.Sprintf("%s#%d", node.Name, id)
	}
	ig.vertices = append(ig.vertices, Vertex{
		Kind:     Communication,
		Node:     node,
		Position: pos,
		Name:     name,
	})
	return id, nil
}

// ArcLength returns the realized length of arc a: the norm distance
// between its endpoint positions.
func (ig *Graph) ArcLength(a graph.ArcID) float64 {
	arc := ig.g.Arc(a)
	return ig.cg.Norm().Distance(ig.vertices[arc.From].Position, ig.vertices[arc.To].Position)
}

// AddLink instantiates a library link from u to v. The realized length
// is the norm distance between the endpoints; it must not exceed the
// link's span.
func (ig *Graph) AddLink(u, v graph.VertexID, l library.Link) (graph.ArcID, error) {
	if !ig.g.HasVertex(u) || !ig.g.HasVertex(v) {
		return 0, fmt.Errorf("impl: link %q endpoints out of range", l.Name)
	}
	length := ig.cg.Norm().Distance(ig.vertices[u].Position, ig.vertices[v].Position)
	// A relative tolerance absorbs float rounding when a chain splits a
	// distance that is an exact multiple of the span: the k-th lerp
	// point can land an ulp past MaxSpan.
	if !l.CanSpan(length) && length > l.MaxSpan*(1+1e-9) {
		return 0, fmt.Errorf("impl: link %q (span %g) cannot cover distance %g from %q to %q",
			l.Name, l.MaxSpan, length, ig.vertices[u].Name, ig.vertices[v].Name)
	}
	id, err := ig.g.AddArc(u, v)
	if err != nil {
		return 0, fmt.Errorf("impl: link %q: %w", l.Name, err)
	}
	ig.links = append(ig.links, l)
	return id, nil
}

// AssignImplementation records the path set P(a) implementing a channel.
// Paths must already exist in the graph; structural checks happen in
// Verify. Assigning twice replaces the previous path set.
func (ig *Graph) AssignImplementation(ch model.ChannelID, paths []graph.Path) {
	ig.implOf[ch] = paths
}

// Implementation returns the recorded path set P(a) for a channel.
func (ig *Graph) Implementation(ch model.ChannelID) []graph.Path {
	return ig.implOf[ch]
}

// PathBandwidth returns b(q) = min over the path's arcs of the link
// bandwidth (Definition 2.3). The trivial path has +Inf bandwidth.
func (ig *Graph) PathBandwidth(p graph.Path) float64 {
	b := math.Inf(1)
	for _, a := range p.Arcs {
		if lb := ig.links[a].Bandwidth; lb < b {
			b = lb
		}
	}
	return b
}

// PathLength returns d(q) = Σ d(aᵢ) over the path's arcs.
func (ig *Graph) PathLength(p graph.Path) float64 {
	var total float64
	for _, a := range p.Arcs {
		total += ig.ArcLength(a)
	}
	return total
}

// Cost returns C(G') of Definition 2.5: the sum of all communication
// vertex costs and all link instance costs. Computational vertices are
// free.
func (ig *Graph) Cost() float64 {
	var total float64
	for _, v := range ig.vertices {
		if v.Kind == Communication {
			total += v.Node.Cost
		}
	}
	for a := 0; a < ig.g.NumArcs(); a++ {
		id := graph.ArcID(a)
		total += ig.links[id].Cost(ig.ArcLength(id))
	}
	return total
}

// Dot renders the implementation graph in Graphviz DOT syntax.
// Communication vertices are drawn as boxes; arcs are labelled with
// their link name and realized length.
func (ig *Graph) Dot() string {
	return ig.g.Dot(graph.DotOptions{
		Name: "implementation",
		VertexLabel: func(v graph.VertexID) string {
			return ig.vertices[v].Name
		},
		VertexAttrs: func(v graph.VertexID) string {
			if ig.vertices[v].Kind == Communication {
				return "shape=box"
			}
			return "shape=ellipse"
		},
		ArcLabel: func(a graph.ArcID) string {
			return fmt.Sprintf("%s d=%.2f", ig.links[a].Name, ig.ArcLength(a))
		},
	})
}
