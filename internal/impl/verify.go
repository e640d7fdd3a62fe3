package impl

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/model"
)

// verifyTol is the tolerance of Verify's bandwidth comparisons.
const verifyTol = 1e-9

// Verify checks that the implementation graph satisfies every constraint
// of Definition 2.4 with respect to its constraint graph:
//
//  1. every channel has a recorded, structurally valid path set P(a);
//  2. each path runs from χ(u) to χ(v) and its interior vertices are all
//     communication vertices;
//  3. the summed path bandwidths cover b(a);
//  4. every link instance respects its span (guaranteed at construction,
//     re-checked here) and carries at most its bandwidth: the sum of
//     the demand routed over it, the paper's multiplexer description
//     ("one outgoing link whose bandwidth is larger than the sum of the
//     incoming");
//  5. every link instance is used by at least one path (no dead
//     hardware — a cost-minimal architecture never pays for unused
//     links, and letting them pass verification would mask synthesis
//     bugs).
//
// It returns nil if all constraints hold.
func (ig *Graph) Verify() error {
	routed := make([]float64, ig.g.NumArcs())
	usedArc := make([]bool, ig.g.NumArcs())
	usedVertex := make([]bool, ig.g.NumVertices())

	for i := 0; i < ig.cg.NumChannels(); i++ {
		ch := model.ChannelID(i)
		c := ig.cg.Channel(ch)
		paths := ig.implOf[ch]
		if len(paths) == 0 {
			return fmt.Errorf("impl: channel %q has no implementation", c.Name)
		}
		var bwSum float64
		for pi, p := range paths {
			if err := p.Validate(ig.g); err != nil {
				return fmt.Errorf("impl: channel %q path %d: %w", c.Name, pi, err)
			}
			if p.Source() != graph.VertexID(c.From) {
				return fmt.Errorf("impl: channel %q path %d starts at %q, want χ(%q)",
					c.Name, pi, ig.vertices[p.Source()].Name, ig.cg.Port(c.From).Name)
			}
			if p.Target() != graph.VertexID(c.To) {
				return fmt.Errorf("impl: channel %q path %d ends at %q, want χ(%q)",
					c.Name, pi, ig.vertices[p.Target()].Name, ig.cg.Port(c.To).Name)
			}
			for _, v := range p.Interior() {
				if ig.vertices[v].Kind != Communication {
					return fmt.Errorf("impl: channel %q path %d passes through computational vertex %q",
						c.Name, pi, ig.vertices[v].Name)
				}
			}
			bwSum += ig.PathBandwidth(p)
			for _, a := range p.Arcs {
				usedArc[a] = true
			}
			for _, v := range p.Vertices {
				usedVertex[v] = true
			}
		}
		if bwSum+verifyTol < c.Bandwidth {
			return fmt.Errorf("impl: channel %q bandwidth %.6g not covered: paths provide %.6g",
				c.Name, c.Bandwidth, bwSum)
		}
	}

	// Parallel paths of one channel split its demand rather than each
	// carrying the full charge.
	for i := 0; i < ig.cg.NumChannels(); i++ {
		ch := model.ChannelID(i)
		shares := ig.splitDemand(ch)
		for pi, p := range ig.implOf[ch] {
			for _, a := range p.Arcs {
				routed[a] += shares[pi]
			}
		}
	}

	for a := 0; a < ig.g.NumArcs(); a++ {
		id := graph.ArcID(a)
		l := ig.links[id]
		length := ig.ArcLength(id)
		if !l.CanSpan(length) && length > l.MaxSpan*(1+1e-9) {
			return fmt.Errorf("impl: link %q instance spans %.6g > max span %.6g", l.Name, length, l.MaxSpan)
		}
		if routed[id] > l.Bandwidth+verifyTol {
			return fmt.Errorf("impl: link %q instance overloaded: demand %.6g > bandwidth %.6g",
				l.Name, routed[id], l.Bandwidth)
		}
		if !usedArc[id] {
			arc := ig.g.Arc(id)
			return fmt.Errorf("impl: link %q from %q to %q is not used by any channel implementation",
				l.Name, ig.vertices[arc.From].Name, ig.vertices[arc.To].Name)
		}
	}
	for v := 0; v < ig.g.NumVertices(); v++ {
		if ig.vertices[v].Kind == Communication && !usedVertex[v] {
			return fmt.Errorf("impl: communication vertex %q is not used by any channel implementation",
				ig.vertices[v].Name)
		}
	}
	return nil
}

// splitDemand apportions a channel's bandwidth demand b(a) across its
// parallel implementation paths: each path is filled up to its own
// bandwidth in order until the demand is exhausted (a feasible split
// exists whenever Σ b(q) ≥ b(a)).
func (ig *Graph) splitDemand(ch model.ChannelID) []float64 {
	c := ig.cg.Channel(ch)
	paths := ig.implOf[ch]
	shares := make([]float64, len(paths))
	remaining := c.Bandwidth
	for i, p := range paths {
		if remaining <= 0 {
			break
		}
		take := math.Min(remaining, ig.PathBandwidth(p))
		shares[i] = take
		remaining -= take
	}
	return shares
}
