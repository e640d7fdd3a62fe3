package graph

import "fmt"

// Path is the alternating sequence of Definition 2.3: distinct vertices
// v₁, a₁, v₂, …, a_{Q−1}, v_Q where arc aᵢ goes from vᵢ to vᵢ₊₁. A path
// with a single vertex and no arcs is valid (the trivial path).
type Path struct {
	Vertices []VertexID
	Arcs     []ArcID
}

// Validate checks that the path is structurally consistent with g:
// lengths line up, every arc connects its neighbouring vertices, and all
// vertices are distinct (paths are simple per Def. 2.3).
func (p Path) Validate(g *Digraph) error {
	if len(p.Vertices) == 0 {
		return fmt.Errorf("graph: empty path")
	}
	if len(p.Arcs) != len(p.Vertices)-1 {
		return fmt.Errorf("graph: path has %d vertices but %d arcs", len(p.Vertices), len(p.Arcs))
	}
	seen := make(map[VertexID]bool, len(p.Vertices))
	for _, v := range p.Vertices {
		if !g.HasVertex(v) {
			return fmt.Errorf("graph: path vertex %d not in graph", v)
		}
		if seen[v] {
			return fmt.Errorf("graph: path repeats vertex %d", v)
		}
		seen[v] = true
	}
	for i, id := range p.Arcs {
		if !g.HasArcID(id) {
			return fmt.Errorf("graph: path arc %d not in graph", id)
		}
		a := g.Arc(id)
		if a.From != p.Vertices[i] || a.To != p.Vertices[i+1] {
			return fmt.Errorf("graph: path arc %d connects %d→%d, expected %d→%d",
				id, a.From, a.To, p.Vertices[i], p.Vertices[i+1])
		}
	}
	return nil
}

// Source returns the first vertex of the path.
func (p Path) Source() VertexID { return p.Vertices[0] }

// Target returns the last vertex of the path.
func (p Path) Target() VertexID { return p.Vertices[len(p.Vertices)-1] }

// Len returns the number of arcs in the path.
func (p Path) Len() int { return len(p.Arcs) }

// Interior returns the vertices strictly between source and target.
func (p Path) Interior() []VertexID {
	if len(p.Vertices) <= 2 {
		return nil
	}
	return p.Vertices[1 : len(p.Vertices)-1]
}

// String renders the path as "v0 -> v1 -> v2".
func (p Path) String() string {
	s := ""
	for i, v := range p.Vertices {
		if i > 0 {
			s += " -> "
		}
		s += fmt.Sprint(v)
	}
	return s
}
