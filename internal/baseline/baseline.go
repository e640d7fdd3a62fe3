// Package baseline implements a prior-art-style heuristic synthesizer
// to contrast with the paper's exact algorithm: greedy agglomerative
// merging. Starting from the optimum point-to-point implementation, it
// repeatedly commits the single group merge with the largest immediate
// saving and stops when no merge improves the cost — the
// local-improvement flavor of the earlier communication-synthesis
// approaches the paper's related-work section describes.
//
// The heuristic's blind spot is exactly what motivates the paper's
// two-step exact flow: a k-way merging can be profitable even when
// every smaller merging of the same arcs is not. On the paper's own WAN
// example no pair from {a4, a5, a6} beats two dedicated radio links —
// only the triple on an optical trunk pays — so greedy agglomeration
// never leaves the point-to-point solution and forfeits the entire
// 28 % saving (experiment E13).
package baseline

import (
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/impl"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/p2p"
	"repro/internal/place"
)

// Report summarizes a heuristic run.
type Report struct {
	// Cost is the final architecture cost; P2PCost the starting point.
	Cost, P2PCost float64
	// Merges is the number of group merges committed.
	Merges int
	// Groups lists the final channel grouping.
	Groups [][]model.ChannelID
	// Elapsed is the wall-clock time.
	Elapsed time.Duration
}

// group is a unit of the evolving partition.
type group struct {
	channels []model.ChannelID
	cost     float64
	merge    *place.Candidate // nil for singletons
	plan     *p2p.Plan        // set for singletons
}

// Synthesize runs greedy agglomerative merging and materializes the
// resulting architecture.
func Synthesize(cg *model.ConstraintGraph, lib *library.Library) (*impl.Graph, *Report, error) {
	start := time.Now()
	if err := cg.Validate(); err != nil {
		return nil, nil, err
	}
	if err := lib.Validate(); err != nil {
		return nil, nil, err
	}
	n := cg.NumChannels()
	groups := make([]*group, 0, n)
	rep := &Report{}
	for i := 0; i < n; i++ {
		ch := model.ChannelID(i)
		plan, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
		if err != nil {
			return nil, nil, fmt.Errorf("baseline: channel %q: %w", cg.Channel(ch).Name, err)
		}
		p := plan
		groups = append(groups, &group{
			channels: []model.ChannelID{ch},
			cost:     plan.Cost,
			plan:     &p,
		})
		rep.P2PCost += plan.Cost
	}

	// Greedy loop: commit the best-improving pairwise group merge.
	for {
		bestI, bestJ := -1, -1
		bestGain := 1e-9 // require strict improvement
		var bestCand *place.Candidate
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				union := append(append([]model.ChannelID(nil),
					groups[i].channels...), groups[j].channels...)
				cand, err := place.Optimize(cg, lib, union, nil)
				if err != nil {
					continue // merging infeasible
				}
				gain := groups[i].cost + groups[j].cost - cand.Cost
				if gain > bestGain {
					bestGain, bestI, bestJ, bestCand = gain, i, j, cand
				}
			}
		}
		if bestI < 0 {
			break
		}
		merged := &group{
			channels: bestCand.Channels,
			cost:     bestCand.Cost,
			merge:    bestCand,
		}
		// Remove j first (j > i) to keep indices valid.
		groups = append(groups[:bestJ], groups[bestJ+1:]...)
		groups[bestI] = merged
		rep.Merges++
	}

	// Materialize.
	ig := impl.New(cg)
	var total float64
	for _, g := range groups {
		total += g.cost
		rep.Groups = append(rep.Groups, g.channels)
		if g.merge != nil {
			if err := g.merge.Instantiate(ig, lib); err != nil {
				return nil, nil, err
			}
			continue
		}
		ch := g.channels[0]
		c := cg.Channel(ch)
		paths, err := p2p.BuildChains(ig, graph.VertexID(c.From), graph.VertexID(c.To), *g.plan, lib, c.Name)
		if err != nil {
			return nil, nil, err
		}
		ig.AssignImplementation(ch, paths)
	}
	rep.Cost = total
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return nil, nil, fmt.Errorf("baseline: non-finite cost")
	}
	if err := ig.Verify(); err != nil {
		return nil, nil, fmt.Errorf("baseline: result fails verification: %w", err)
	}
	rep.Elapsed = time.Since(start)
	return ig, rep, nil
}
