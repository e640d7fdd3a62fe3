// Package soc adapts the CDCS flow to on-chip communication synthesis,
// the paper's second application domain (Section 4, Figure 5): global
// wires are segmented at the technology's critical length l_crit by
// inserting optimally-sized repeaters (Otten and Brayton's
// planning-for-performance model, the paper's reference [11]), distances
// are Manhattan, and the cost figure is the number of repeaters —
// ⌊(|xᵥ−xᵤ| + |yᵥ−yᵤ|) / l_crit⌋ per channel.
package soc

import (
	"math"

	"repro/internal/library"
	"repro/internal/model"
)

// Technology describes a process node for the critical-length wire
// model. Distances are millimeters.
type Technology struct {
	// Name is the process label ("0.18um").
	Name string
	// LCrit is the critical repeater spacing: the longest wire that
	// meets timing without an intermediate repeater.
	LCrit float64
	// WireBandwidth is the bandwidth a repeated wire sustains, in the
	// application's bandwidth unit; on-chip wires are clocked, so one
	// wire carries one word per cycle regardless of length once
	// repeated at l_crit.
	WireBandwidth float64
}

// Tech180nm is the 0.18 µm process of the paper's example, with
// l_crit = 0.6 mm.
func Tech180nm() Technology {
	return Technology{Name: "0.18um", LCrit: 0.6, WireBandwidth: 100}
}

// RepeaterCount is the paper's on-chip cost function for one channel:
// ⌊d / l_crit⌋ repeaters for a wire of Manhattan length d.
func (t Technology) RepeaterCount(d float64) int {
	if d < 0 {
		return 0
	}
	return int(math.Floor(d / t.LCrit))
}

// TotalRepeaters sums RepeaterCount over all channels of a constraint
// graph (which must use the Manhattan norm to be meaningful on-chip).
func (t Technology) TotalRepeaters(cg *model.ConstraintGraph) int {
	total := 0
	for i := 0; i < cg.NumChannels(); i++ {
		total += t.RepeaterCount(cg.Distance(model.ChannelID(i)))
	}
	return total
}

// Library returns the paper's first-cut on-chip communication library:
// a single metal-wire link of span l_crit (free metal, since the cost
// criterion counts repeaters only) and three communication nodes — an
// optimally sized inverter (the repeater, cost 1 so that implementation
// cost equals repeater count), a multiplexer and a de-multiplexer.
//
// The wire link carries a tiny fixed cost so Assumption 2.1's positive
// cost clause holds; ε is small enough never to change which
// architecture wins.
func (t Technology) Library() *library.Library {
	const epsilon = 1e-6
	return &library.Library{
		Links: []library.Link{
			{
				Name:      "wire",
				Bandwidth: t.WireBandwidth,
				MaxSpan:   t.LCrit,
				CostFixed: epsilon,
			},
		},
		Nodes: []library.Node{
			{Name: "inverter", Kind: library.Repeater, Cost: 1},
			{Name: "mux", Kind: library.Mux, Cost: 1},
			{Name: "demux", Kind: library.Demux, Cost: 1},
		},
	}
}
