// Package model implements the communication constraint graph of
// Definition 2.1: a directed graph whose vertices are ports of
// computational modules (each with a position in the plane) and whose
// arcs are point-to-point unidirectional communication channels, each
// carrying two arc properties — the distance d(a) between its endpoints
// and the required bandwidth b(a).
//
// The constraint graph is the sole input of the synthesis flow besides
// the communication library: per the paper's orthogonalization of
// concerns, module functionality is abstracted away entirely.
package model

import (
	"fmt"
	"math"
	"repro/internal/geom"
	"repro/internal/graph"
)

// PortID identifies a port vertex of a constraint graph.
type PortID = graph.VertexID

// ChannelID identifies a constraint arc (a virtual channel).
type ChannelID = graph.ArcID

// Port is a vertex of the constraint graph: one input or output port of a
// computational module, at a fixed position.
type Port struct {
	// Name is a human-readable identifier ("A.out0"). Names are unique
	// within a graph.
	Name string
	// Module optionally names the computational module owning the port.
	// Ports of the same module may share a position (the paper's WAN
	// example adopts exactly that approximation).
	Module string
	// Position is p(v) of Definition 2.1.
	Position geom.Point
}

// Channel is a constraint arc: a point-to-point unidirectional virtual
// channel with its two arc properties.
type Channel struct {
	// Name is a human-readable identifier ("a1"). Names are unique
	// within a graph.
	Name string
	// From and To are the source and destination ports.
	From, To PortID
	// Bandwidth is b(a), in the application's bandwidth unit (e.g. Mbps).
	Bandwidth float64
}

// ConstraintGraph is the communication constraint graph G(V, A).
// Construct it with NewConstraintGraph and the Add* methods.
type ConstraintGraph struct {
	norm     geom.Norm
	g        *graph.Digraph
	ports    []Port
	channels []Channel
	byName   map[string]PortID
}

// NewConstraintGraph returns an empty constraint graph measuring arc
// lengths with the given norm. A nil norm defaults to Euclidean.
func NewConstraintGraph(norm geom.Norm) *ConstraintGraph {
	if norm == nil {
		norm = geom.Euclidean
	}
	return &ConstraintGraph{
		norm:   norm,
		g:      &graph.Digraph{},
		byName: make(map[string]PortID),
	}
}

// Norm returns the norm used to measure arc lengths.
func (cg *ConstraintGraph) Norm() geom.Norm { return cg.norm }

// AddPort adds a port vertex and returns its ID. Port names must be
// unique and non-empty.
func (cg *ConstraintGraph) AddPort(p Port) (PortID, error) {
	if p.Name == "" {
		return 0, fmt.Errorf("model: port name must be non-empty")
	}
	if _, dup := cg.byName[p.Name]; dup {
		return 0, fmt.Errorf("model: duplicate port name %q", p.Name)
	}
	if !p.Position.IsFinite() {
		return 0, fmt.Errorf("model: port %q has non-finite position %v", p.Name, p.Position)
	}
	id := cg.g.AddVertex()
	cg.ports = append(cg.ports, p)
	cg.byName[p.Name] = id
	return id, nil
}

// MustAddPort is AddPort that panics on error, for programmatic builders.
func (cg *ConstraintGraph) MustAddPort(p Port) PortID {
	id, err := cg.AddPort(p)
	if err != nil {
		panic(err)
	}
	return id
}

// AddChannel adds a constraint arc and returns its ID. The channel's
// distance is derived from the endpoint positions under the graph norm
// (keeping d(a) consistent with p(u), p(v) as Definition 2.1 requires).
func (cg *ConstraintGraph) AddChannel(c Channel) (ChannelID, error) {
	if c.Name == "" {
		return 0, fmt.Errorf("model: channel name must be non-empty")
	}
	for _, existing := range cg.channels {
		if existing.Name == c.Name {
			return 0, fmt.Errorf("model: duplicate channel name %q", c.Name)
		}
	}
	if c.Bandwidth <= 0 || math.IsNaN(c.Bandwidth) || math.IsInf(c.Bandwidth, 0) {
		return 0, fmt.Errorf("model: channel %q bandwidth %g must be positive and finite", c.Name, c.Bandwidth)
	}
	id, err := cg.g.AddArc(c.From, c.To)
	if err != nil {
		return 0, fmt.Errorf("model: channel %q: %w", c.Name, err)
	}
	cg.channels = append(cg.channels, c)
	return id, nil
}

// MustAddChannel is AddChannel that panics on error.
func (cg *ConstraintGraph) MustAddChannel(c Channel) ChannelID {
	id, err := cg.AddChannel(c)
	if err != nil {
		panic(err)
	}
	return id
}

// NumPorts returns the number of port vertices.
func (cg *ConstraintGraph) NumPorts() int { return len(cg.ports) }

// NumChannels returns the number of constraint arcs.
func (cg *ConstraintGraph) NumChannels() int { return len(cg.channels) }

// Port returns the port with the given ID.
func (cg *ConstraintGraph) Port(id PortID) Port { return cg.ports[id] }

// Channel returns the channel with the given ID.
func (cg *ConstraintGraph) Channel(id ChannelID) Channel { return cg.channels[id] }

// PortByName looks a port up by name.
func (cg *ConstraintGraph) PortByName(name string) (PortID, bool) {
	id, ok := cg.byName[name]
	return id, ok
}

// ChannelByName looks a channel up by name.
func (cg *ConstraintGraph) ChannelByName(name string) (ChannelID, bool) {
	for i, c := range cg.channels {
		if c.Name == name {
			return ChannelID(i), true
		}
	}
	return 0, false
}

// ChannelIDs returns all channel IDs in insertion order.
func (cg *ConstraintGraph) ChannelIDs() []ChannelID {
	ids := make([]ChannelID, len(cg.channels))
	for i := range ids {
		ids[i] = ChannelID(i)
	}
	return ids
}

// Distance returns d(a): the norm distance between the channel's
// endpoint positions.
func (cg *ConstraintGraph) Distance(id ChannelID) float64 {
	c := cg.channels[id]
	return cg.norm.Distance(cg.ports[c.From].Position, cg.ports[c.To].Position)
}

// Bandwidth returns b(a) for the channel.
func (cg *ConstraintGraph) Bandwidth(id ChannelID) float64 {
	return cg.channels[id].Bandwidth
}

// Position returns p(v) for the port.
func (cg *ConstraintGraph) Position(id PortID) geom.Point {
	return cg.ports[id].Position
}

// Validate checks structural invariants: every channel endpoint exists,
// bandwidths are positive, no two ports share a name, and every channel
// connects two distinct ports. (Distance consistency holds by
// construction, since distances are always derived from positions.)
func (cg *ConstraintGraph) Validate() error {
	if len(cg.ports) == 0 {
		return fmt.Errorf("model: constraint graph has no ports")
	}
	for i, c := range cg.channels {
		if !cg.g.HasVertex(c.From) || !cg.g.HasVertex(c.To) {
			return fmt.Errorf("model: channel %q (#%d) has dangling endpoint", c.Name, i)
		}
		if c.From == c.To {
			return fmt.Errorf("model: channel %q is a self-loop", c.Name)
		}
		if c.Bandwidth <= 0 {
			return fmt.Errorf("model: channel %q has non-positive bandwidth", c.Name)
		}
	}
	return nil
}
