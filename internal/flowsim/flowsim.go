// Package flowsim is a discrete-time fluid-flow simulator for
// implementation graphs: every channel injects traffic at its required
// bandwidth, flows travel hop by hop along the channel's implementation
// paths, and links serve competing flows max-min fairly within their
// bandwidth. The simulator measures sustained per-channel throughput
// and per-link utilization.
//
// The paper argues correctness structurally (Definition 2.4); this
// substrate validates the same property dynamically and makes design
// choices observable — most notably the trunk-capacity question: under
// the sum rule every synthesized architecture sustains all demands,
// while a max-rule trunk visibly starves concurrent merged channels
// (experiment E9).
package flowsim

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/impl"
	"repro/internal/model"
)

// Config tunes a simulation run.
type Config struct {
	// Ticks is the simulation length; zero means 500. The first fifth
	// of the ticks is warmup, excluded from throughput measurement
	// (pipelines need to fill).
	Ticks int
}

func (c Config) ticks() int {
	if c.Ticks <= 0 {
		return 500
	}
	return c.Ticks
}

// ChannelStats reports one channel's measured service.
type ChannelStats struct {
	Channel model.ChannelID
	Name    string
	// Offered is the channel's bandwidth requirement b(a).
	Offered float64
	// Delivered is the measured sustained throughput (per tick average
	// after warmup, in bandwidth units).
	Delivered float64
	// LatencyTicks is the tick at which the channel's first data
	// arrived (pipeline fill time, equal to the shortest path's hop
	// count); -1 if nothing ever arrived.
	LatencyTicks int
}

// Satisfied reports whether the channel received its demand (within
// half a percent, absorbing pipeline-fill transients).
func (s ChannelStats) Satisfied() bool {
	return s.Delivered >= s.Offered*0.995
}

// LinkStats reports one link instance's load.
type LinkStats struct {
	Arc      graph.ArcID
	Link     string
	Capacity float64
	// MeanUtilization is average served volume / capacity after warmup.
	MeanUtilization float64
	// PeakUtilization is the maximum per-tick utilization after warmup.
	PeakUtilization float64
}

// Result is a completed simulation.
type Result struct {
	Channels []ChannelStats
	Links    []LinkStats
	Ticks    int
}

// AllSatisfied reports whether every channel sustained its demand.
func (r *Result) AllSatisfied() bool {
	for _, c := range r.Channels {
		if !c.Satisfied() {
			return false
		}
	}
	return true
}

// flow is one (channel, path) traffic stream: a pipeline of queues, one
// per hop, queue[i] holding volume waiting to traverse path.Arcs[i].
type flow struct {
	channel model.ChannelID
	path    graph.Path
	inject  float64 // volume injected per tick
	queues  []float64
	done    float64 // delivered volume after warmup
	firstAt int     // tick of first delivery; -1 until then
}

// Simulate runs the fluid simulation. The implementation graph must
// carry a recorded implementation for every channel (as produced by the
// synthesizer); Simulate returns an error otherwise.
func Simulate(ig *impl.Graph, cfg Config) (*Result, error) {
	cg := ig.ConstraintGraph()
	n := cg.NumChannels()
	var flows []*flow
	for i := 0; i < n; i++ {
		ch := model.ChannelID(i)
		paths := ig.Implementation(ch)
		if len(paths) == 0 {
			return nil, fmt.Errorf("flowsim: channel %q has no implementation", cg.Channel(ch).Name)
		}
		// Split the channel demand across its parallel paths the same
		// way the verifier accounts for it: fill each path up to its
		// own bandwidth in order.
		remaining := cg.Bandwidth(ch)
		for _, p := range paths {
			if p.Len() == 0 {
				return nil, fmt.Errorf("flowsim: channel %q has a trivial path", cg.Channel(ch).Name)
			}
			take := math.Min(remaining, ig.PathBandwidth(p))
			remaining -= take
			flows = append(flows, &flow{
				channel: ch,
				path:    p,
				inject:  take,
				queues:  make([]float64, p.Len()),
				firstAt: -1,
			})
		}
	}

	// Per-arc flow membership: which (flow, hop) pairs traverse it.
	byArc := make([][]hopRef, ig.NumLinks())
	for _, f := range flows {
		for hop, a := range f.path.Arcs {
			byArc[a] = append(byArc[a], hopRef{f, hop})
		}
	}

	ticks := cfg.ticks()
	warmup := ticks / 5
	meanUtil := make([]float64, ig.NumLinks())
	peakUtil := make([]float64, ig.NumLinks())
	measured := 0

	// Double-buffered queue updates: serve every link against the
	// start-of-tick queue state so data advances one hop per tick and
	// link order cannot starve anyone.
	for tick := 0; tick < ticks; tick++ {
		for _, f := range flows {
			f.queues[0] += f.inject
		}
		arrivals := make(map[*flow]map[int]float64)
		for a := 0; a < ig.NumLinks(); a++ {
			refs := byArc[a]
			if len(refs) == 0 {
				continue
			}
			capacity := ig.Link(graph.ArcID(a)).Bandwidth
			served := maxMinServe(refs, capacity)
			var total float64
			for idx, r := range refs {
				v := served[idx]
				if v <= 0 {
					continue
				}
				total += v
				r.f.queues[r.hop] -= v
				if m := arrivals[r.f]; m == nil {
					arrivals[r.f] = map[int]float64{r.hop + 1: v}
				} else {
					m[r.hop+1] += v
				}
			}
			if capacity > 0 {
				u := total / capacity
				if tick >= warmup {
					meanUtil[a] += u
					if u > peakUtil[a] {
						peakUtil[a] = u
					}
				}
			}
		}
		for f, m := range arrivals {
			for hop, v := range m {
				if hop >= len(f.queues) {
					if f.firstAt < 0 && v > 0 {
						f.firstAt = tick + 1
					}
					if tick >= warmup {
						f.done += v
					}
					continue
				}
				f.queues[hop] += v
			}
		}
		if tick >= warmup {
			measured++
		}
	}

	res := &Result{Ticks: ticks}
	delivered := make([]float64, n)
	latency := make([]int, n)
	for i := range latency {
		latency[i] = -1
	}
	for _, f := range flows {
		if measured > 0 {
			delivered[f.channel] += f.done / float64(measured)
		}
		if f.firstAt >= 0 && (latency[f.channel] < 0 || f.firstAt < latency[f.channel]) {
			latency[f.channel] = f.firstAt
		}
	}
	for i := 0; i < n; i++ {
		ch := model.ChannelID(i)
		res.Channels = append(res.Channels, ChannelStats{
			Channel:      ch,
			Name:         cg.Channel(ch).Name,
			Offered:      cg.Bandwidth(ch),
			Delivered:    delivered[i],
			LatencyTicks: latency[i],
		})
	}
	for a := 0; a < ig.NumLinks(); a++ {
		if len(byArc[a]) == 0 {
			continue
		}
		id := graph.ArcID(a)
		stats := LinkStats{
			Arc:             id,
			Link:            ig.Link(id).Name,
			Capacity:        ig.Link(id).Bandwidth,
			PeakUtilization: peakUtil[a],
		}
		if measured > 0 {
			stats.MeanUtilization = meanUtil[a] / float64(measured)
		}
		res.Links = append(res.Links, stats)
	}
	return res, nil
}

// hopRef identifies one flow's hop traversing a link.
type hopRef struct {
	f   *flow
	hop int
}

// maxMinServe allocates capacity among the referenced hop queues
// max-min fairly: everyone gets an equal share, unused share is
// redistributed until either all demand is met or the capacity is
// exhausted.
func maxMinServe(refs []hopRef, capacity float64) []float64 {
	n := len(refs)
	out := make([]float64, n)
	remainingDemand := make([]float64, n)
	active := 0
	for i, r := range refs {
		remainingDemand[i] = r.f.queues[r.hop]
		if remainingDemand[i] > 0 {
			active++
		}
	}
	remaining := capacity
	for active > 0 && remaining > 1e-15 {
		share := remaining / float64(active)
		progressed := false
		for i := range refs {
			if remainingDemand[i] <= 0 {
				continue
			}
			take := math.Min(share, remainingDemand[i])
			out[i] += take
			remainingDemand[i] -= take
			remaining -= take
			if remainingDemand[i] <= 1e-15 {
				remainingDemand[i] = 0
				active--
			}
			if take > 0 {
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return out
}
