package graph

import (
	"fmt"
	"strings"
)

// DotOptions customizes DOT (Graphviz) rendering of a Digraph. All
// callbacks may be nil, in which case IDs are used as labels and no extra
// attributes are emitted.
type DotOptions struct {
	// Name is the graph name; empty means "G".
	Name string
	// VertexLabel returns the label for a vertex.
	VertexLabel func(VertexID) string
	// VertexAttrs returns extra DOT attributes (e.g. `shape=box`).
	VertexAttrs func(VertexID) string
	// ArcLabel returns the label for an arc.
	ArcLabel func(ArcID) string
}

// Dot renders the graph in Graphviz DOT syntax. The output is stable:
// vertices and arcs are emitted in ID order.
func (g *Digraph) Dot(opt DotOptions) string {
	name := opt.Name
	if name == "" {
		name = "G"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n", quoteDotID(name))
	for v := 0; v < g.NumVertices(); v++ {
		id := VertexID(v)
		label := fmt.Sprint(v)
		if opt.VertexLabel != nil {
			label = opt.VertexLabel(id)
		}
		attrs := fmt.Sprintf("label=%s", quoteDotID(label))
		if opt.VertexAttrs != nil {
			if extra := opt.VertexAttrs(id); extra != "" {
				attrs += ", " + extra
			}
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", v, attrs)
	}
	for i := 0; i < g.NumArcs(); i++ {
		id := ArcID(i)
		a := g.Arc(id)
		label := ""
		if opt.ArcLabel != nil {
			label = opt.ArcLabel(id)
		}
		if label != "" {
			fmt.Fprintf(&b, "  n%d -> n%d [label=%s];\n", a.From, a.To, quoteDotID(label))
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", a.From, a.To)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func quoteDotID(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}
