// Package library implements the communication library of Definition
// 2.2: a collection of communication links and communication nodes from
// which implementation graphs are composed.
//
// A link is characterized by the longest channel it can realize (its
// span), the fastest channel it can realize (its bandwidth), and a cost.
// The paper uses two pricing styles, both supported here:
//
//   - length-priced links, such as the WAN example's radio link
//     (11 Mbps, any length ℓ, $2×meter) — cost grows with the realized
//     length and the span is unbounded;
//   - fixed links, such as the on-chip critical-length wire (one metal
//     segment of length l_crit) — a fixed span with a fixed per-instance
//     cost.
//
// Nodes are repeaters (receive and re-transmit), multiplexers (merge
// several incoming links onto one faster outgoing link) and
// de-multiplexers (the inverse), each with a fixed instantiation cost.
package library

import (
	"fmt"
	"math"
)

// NodeKind distinguishes the communication node types of the paper.
type NodeKind int

const (
	// Repeater receives and re-transmits the same data, used to
	// concatenate links in an arc segmentation.
	Repeater NodeKind = iota
	// Mux merges multiple incoming links into one outgoing link whose
	// bandwidth covers their sum.
	Mux
	// Demux splits one incoming link back into multiple outgoing links.
	Demux
)

// String returns the lower-case kind name.
func (k NodeKind) String() string {
	switch k {
	case Repeater:
		return "repeater"
	case Mux:
		return "mux"
	case Demux:
		return "demux"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a communication node type available in the library. Instances
// of it become communication vertices of the implementation graph.
type Node struct {
	Name string
	Kind NodeKind
	// Cost is c(n), charged once per instance.
	Cost float64
}

// Link is a communication link type available in the library.
type Link struct {
	Name string
	// Bandwidth is b(l): the fastest channel one instance can realize.
	Bandwidth float64
	// MaxSpan is d(l): the longest channel one instance can realize.
	// math.Inf(1) models length-parametric links (radio, fiber) that can
	// be manufactured at any length.
	MaxSpan float64
	// CostFixed is charged once per instance.
	CostFixed float64
	// CostPerLength is charged per unit of realized length. The total
	// cost of an instance spanning length d is CostFixed + CostPerLength·d.
	CostPerLength float64
}

// Cost returns c(l) for an instance realized at the given length.
func (l Link) Cost(length float64) float64 {
	return l.CostFixed + l.CostPerLength*length
}

// CanSpan reports whether a single instance can cover distance d.
func (l Link) CanSpan(d float64) bool { return d <= l.MaxSpan }

// Unbounded reports whether the link is length-parametric.
func (l Link) Unbounded() bool { return math.IsInf(l.MaxSpan, 1) }

// Library is the communication library L ∪ N.
type Library struct {
	Links []Link
	Nodes []Node
}

// Validate checks that the library is well-formed: at least one link,
// positive bandwidths and spans, non-negative costs, unique names.
func (lib *Library) Validate() error {
	if len(lib.Links) == 0 {
		return fmt.Errorf("library: no links")
	}
	names := make(map[string]bool)
	for _, l := range lib.Links {
		if l.Name == "" {
			return fmt.Errorf("library: link with empty name")
		}
		if names[l.Name] {
			return fmt.Errorf("library: duplicate name %q", l.Name)
		}
		names[l.Name] = true
		if l.Bandwidth <= 0 || math.IsNaN(l.Bandwidth) {
			return fmt.Errorf("library: link %q bandwidth %g must be positive", l.Name, l.Bandwidth)
		}
		if l.MaxSpan <= 0 || math.IsNaN(l.MaxSpan) {
			return fmt.Errorf("library: link %q span %g must be positive", l.Name, l.MaxSpan)
		}
		if l.CostFixed < 0 || l.CostPerLength < 0 {
			return fmt.Errorf("library: link %q has negative cost", l.Name)
		}
		if l.CostFixed == 0 && l.CostPerLength == 0 {
			return fmt.Errorf("library: link %q is free; Assumption 2.1 requires positive implementation costs", l.Name)
		}
	}
	for _, n := range lib.Nodes {
		if n.Name == "" {
			return fmt.Errorf("library: node with empty name")
		}
		if names[n.Name] {
			return fmt.Errorf("library: duplicate name %q", n.Name)
		}
		names[n.Name] = true
		if n.Cost < 0 || math.IsNaN(n.Cost) {
			return fmt.Errorf("library: node %q has negative cost", n.Name)
		}
	}
	return nil
}

// MaxBandwidth returns max over links of b(l), the quantity used by the
// Theorem 3.2 bandwidth prune.
func (lib *Library) MaxBandwidth() float64 {
	var m float64
	for _, l := range lib.Links {
		if l.Bandwidth > m {
			m = l.Bandwidth
		}
	}
	return m
}

// LinkByName returns the link with the given name.
func (lib *Library) LinkByName(name string) (Link, bool) {
	for _, l := range lib.Links {
		if l.Name == name {
			return l, true
		}
	}
	return Link{}, false
}

// CheapestNode returns the lowest-cost node of the given kind.
func (lib *Library) CheapestNode(kind NodeKind) (Node, bool) {
	best := Node{}
	found := false
	for _, n := range lib.Nodes {
		if n.Kind != kind {
			continue
		}
		if !found || n.Cost < best.Cost {
			best, found = n, true
		}
	}
	return best, found
}

// NodeCost returns the cheapest instantiation cost of a node of the given
// kind, or +Inf if the library has none. Synthesis uses +Inf to rule out
// transformations requiring an unavailable node kind.
func (lib *Library) NodeCost(kind NodeKind) float64 {
	if n, ok := lib.CheapestNode(kind); ok {
		return n.Cost
	}
	return math.Inf(1)
}
