package lid

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/impl"
	"repro/internal/model"
)

// Implementation-level LID analysis: instead of treating each channel
// as one straight wire (Analyze), walk the channel's actual
// implementation paths — through mux/demux hubs, shared trunks and
// repeater chains — and derive per-channel forward latency and the
// relay-station budget.
//
// Model: repeaters and switches are combinational, so distance
// accumulates continuously along a path; a stateful relay station
// (latch) is required at every whole multiple of the per-clock reach.
// A path of total length d therefore takes ⌈d / reach⌉ cycles and
// traverses ⌈d / reach⌉ − 1 relay stations. A channel's latency is the
// maximum over its parallel paths (the slowest path bounds when the
// last word arrives).
type ImplementationReport struct {
	Params Params
	// LatencyCycles maps each channel to its forward latency.
	LatencyCycles map[model.ChannelID]int
	// MaxLatencyCycles is the worst channel latency.
	MaxLatencyCycles int
	// TotalRelays sums the relay stations each channel's worst path
	// traverses. Relay stations on shared trunks are counted once per
	// channel using them: in latency-insensitive design every channel
	// crossing a station needs its own queue slot and flow-control
	// tokens there, so the per-channel sum is the relevant budget.
	TotalRelays int
	// SingleCycleLinks and MultiCycleLinks partition the link instances
	// by whether one instance alone fits the per-clock reach.
	SingleCycleLinks, MultiCycleLinks int
}

// AnalyzeImplementation runs the LID treatment over a synthesized
// architecture.
func AnalyzeImplementation(ig *impl.Graph, p Params) (*ImplementationReport, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	reach := p.PerClockReach()
	cg := ig.ConstraintGraph()
	rep := &ImplementationReport{
		Params:        p,
		LatencyCycles: make(map[model.ChannelID]int, cg.NumChannels()),
	}

	pathCycles := func(length float64) int {
		if length <= 0 {
			return 1
		}
		c := int(math.Ceil(length/reach - 1e-12))
		if c < 1 {
			c = 1
		}
		return c
	}

	// Per-link classification against the reach.
	dg := ig.Digraph()
	for a := 0; a < dg.NumArcs(); a++ {
		if ig.ArcLength(graph.ArcID(a)) <= reach+1e-12 {
			rep.SingleCycleLinks++
		} else {
			rep.MultiCycleLinks++
		}
	}

	for i := 0; i < cg.NumChannels(); i++ {
		ch := model.ChannelID(i)
		paths := ig.Implementation(ch)
		if len(paths) == 0 {
			return nil, fmt.Errorf("lid: channel %q has no implementation", cg.Channel(ch).Name)
		}
		worst := 0
		for _, path := range paths {
			if c := pathCycles(ig.PathLength(path)); c > worst {
				worst = c
			}
		}
		rep.LatencyCycles[ch] = worst
		rep.TotalRelays += worst - 1
		if worst > rep.MaxLatencyCycles {
			rep.MaxLatencyCycles = worst
		}
	}
	return rep, nil
}
