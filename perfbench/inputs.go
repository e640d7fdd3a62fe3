package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/cdcs"
)

// The paper's Example 1 graph and library, and the 180 nm on-chip
// library, as JSON copies: the benchmark's inputs never move when the
// program's own built-in workloads change.
var (
	//go:embed data/wan_graph.json
	wanGraphJSON []byte
	//go:embed data/wan_library.json
	wanLibraryJSON []byte
	//go:embed data/lib_180nm.json
	lib180nmJSON []byte
)

// instance is one synthesis input in the wire form both surfaces take:
// the facade decodes it in-process, the daemon receives it in a POST.
type instance struct {
	Graph   json.RawMessage
	Library json.RawMessage
}

const (
	// synthPoolSize instances per synth pool; see makePool.
	synthPoolSize = 256
	// servePoolSize instances for serve-small, whose jobs are cheap
	// enough that a run cycles the pool dozens of times.
	servePoolSize = 256
)

// makePool builds the workload's instance pool for a seed; the same
// seed always yields byte-identical JSON.
//
// The synth pools are stratified. Entry i's layout (cluster or module
// positions, channel endpoints, bandwidths) is a fixed template drawn
// from a stream that depends on i alone; the seed then moves every
// coordinate and bandwidth by a symmetry of the norm plus jitter. A
// freely drawn 64-instance pool put synth-wan's median op anywhere
// between 34 and 53 ms depending on the seed, because pricing counts
// range from 1 to 80 per instance; the templates hold the pool's
// difficulty fixed so that a seed changes the data, not the workload.
// 256 of them put the instances near the median close enough together
// that the median no longer jumps between neighbours.
func makePool(workload string, seed int64) ([]instance, error) {
	r := rand.New(rand.NewSource(seed))
	template := func(i int) *rand.Rand { return rand.New(rand.NewSource(int64(i)*7919 + 17)) }
	var pool []instance
	add := func(cg *cdcs.ConstraintGraph, lib json.RawMessage) error {
		g, err := cg.MarshalJSON()
		if err != nil {
			return fmt.Errorf("encode %s instance %d: %w", workload, len(pool), err)
		}
		pool = append(pool, instance{Graph: g, Library: lib})
		return nil
	}
	switch workload {
	case "synth-wan":
		// The paper's Fig. 3 WAN is always the first entry, so every
		// seed re-checks the published optimum.
		pool = append(pool, instance{Graph: wanGraphJSON, Library: wanLibraryJSON})
		for len(pool) < synthPoolSize {
			if err := add(perturbWAN(clusteredWAN(template(len(pool))), r), wanLibraryJSON); err != nil {
				return nil, err
			}
		}
	case "synth-soc":
		for len(pool) < synthPoolSize {
			if err := add(perturbChip(onChip(template(len(pool))), r), lib180nmJSON); err != nil {
				return nil, err
			}
		}
	case "serve-small":
		for len(pool) < servePoolSize {
			if err := add(twoChannel(r), wanLibraryJSON); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return pool, nil
}

// clusteredWAN draws 7 channels between sites gathered in 3 clusters of
// a 200 km square (4 km spread), half of them crossing clusters, at
// 5–10 Mbps: the shape of the paper's Fig. 3, where long inter-cluster
// channels are worth merging onto one optical trunk.
func clusteredWAN(r *rand.Rand) *cdcs.ConstraintGraph {
	const (
		channels, clusters = 7, 3
		area, spread       = 200.0, 4.0
	)
	cg := cdcs.NewConstraintGraph(cdcs.Euclidean)
	centers := make([]cdcs.Point, clusters)
	for i := range centers {
		centers[i] = cdcs.Pt(r.Float64()*area, r.Float64()*area)
	}
	site := func(c int) cdcs.Point {
		return cdcs.Pt(centers[c].X+r.NormFloat64()*spread, centers[c].Y+r.NormFloat64()*spread)
	}
	for i := 0; i < channels; i++ {
		cu := r.Intn(clusters)
		cv := cu
		if r.Float64() < 0.5 {
			for cv == cu {
				cv = r.Intn(clusters)
			}
		}
		u := cg.MustAddPort(cdcs.Port{Name: fmt.Sprintf("s%d", i), Module: fmt.Sprintf("c%d", cu), Position: site(cu)})
		v := cg.MustAddPort(cdcs.Port{Name: fmt.Sprintf("d%d", i), Module: fmt.Sprintf("c%d", cv), Position: site(cv)})
		cg.MustAddChannel(cdcs.Channel{Name: fmt.Sprintf("ch%d", i), From: u, To: v, Bandwidth: 5 + 5*r.Float64()})
	}
	return cg
}

// onChip draws 5 channels between 8 modules placed uniformly on a 6 mm
// die, Manhattan norm, at 0.4–6.4 words per cycle. On the 180 nm
// library every wire longer than l_crit needs repeaters, so pricing
// takes placement's general (step-cost) search.
func onChip(r *rand.Rand) *cdcs.ConstraintGraph {
	const (
		channels, modules = 5, 8
		die               = 6.0
	)
	cg := cdcs.NewConstraintGraph(cdcs.Manhattan)
	pos := make([]cdcs.Point, modules)
	for i := range pos {
		pos[i] = cdcs.Pt(r.Float64()*die, r.Float64()*die)
	}
	for i := 0; i < channels; i++ {
		mu := r.Intn(modules)
		mv := mu
		for mv == mu {
			mv = r.Intn(modules)
		}
		u := cg.MustAddPort(cdcs.Port{Name: fmt.Sprintf("m%d.ch%d.out", mu, i), Module: fmt.Sprintf("m%d", mu), Position: pos[mu]})
		v := cg.MustAddPort(cdcs.Port{Name: fmt.Sprintf("m%d.ch%d.in", mv, i), Module: fmt.Sprintf("m%d", mv), Position: pos[mv]})
		cg.MustAddChannel(cdcs.Channel{Name: fmt.Sprintf("ch%d", i), From: u, To: v, Bandwidth: 0.4 + 6*r.Float64()})
	}
	return cg
}

// perturbWAN rotates and translates a WAN template (Euclidean distances
// are invariant) and jitters every port by 0.25 km and every bandwidth
// by ±1%.
func perturbWAN(t *cdcs.ConstraintGraph, r *rand.Rand) *cdcs.ConstraintGraph {
	sin, cos := math.Sincos(2 * math.Pi * r.Float64())
	dx, dy := 1000*r.Float64(), 1000*r.Float64()
	return perturb(t, r, 0.25, func(p cdcs.Point) cdcs.Point {
		return cdcs.Pt(cos*p.X-sin*p.Y+dx, sin*p.X+cos*p.Y+dy)
	})
}

// perturbChip maps an on-chip template through one of the die's eight
// symmetries (Manhattan distances are invariant) and jitters every
// bandwidth by ±1%. Ports are not jittered: repeater counts step at
// every multiple of l_crit, so even 0.02 mm of jitter flipped which
// mergings survive pruning and moved the pool's median op by up to a
// third between seeds.
func perturbChip(t *cdcs.ConstraintGraph, r *rand.Rand) *cdcs.ConstraintGraph {
	sym := r.Intn(8)
	return perturb(t, r, 0, func(p cdcs.Point) cdcs.Point {
		x, y := p.X, p.Y
		if sym&1 != 0 {
			x, y = y, x
		}
		if sym&2 != 0 {
			x = 6 - x
		}
		if sym&4 != 0 {
			y = 6 - y
		}
		return cdcs.Pt(x, y)
	})
}

// perturb copies a template, mapping every port through move plus
// Gaussian jitter of the given deviation and scaling every bandwidth by
// a factor in [0.99, 1.01).
func perturb(t *cdcs.ConstraintGraph, r *rand.Rand, jitter float64, move func(cdcs.Point) cdcs.Point) *cdcs.ConstraintGraph {
	cg := cdcs.NewConstraintGraph(t.Norm())
	port := func(p cdcs.Port) cdcs.PortID {
		q := move(p.Position)
		p.Position = cdcs.Pt(q.X+jitter*r.NormFloat64(), q.Y+jitter*r.NormFloat64())
		return cg.MustAddPort(p)
	}
	for _, id := range t.ChannelIDs() {
		ch := t.Channel(id)
		ch.From, ch.To = port(t.Port(ch.From)), port(t.Port(ch.To))
		ch.Bandwidth *= 0.99 + 0.02*r.Float64()
		cg.MustAddChannel(ch)
	}
	return cg
}

// twoChannel draws the facade quickstart's shape cut to two channels:
// a source and a sink cluster 60–100 km apart on the WAN library, so
// the one possible merging is always priced.
func twoChannel(r *rand.Rand) *cdcs.ConstraintGraph {
	cg := cdcs.NewConstraintGraph(cdcs.Euclidean)
	dist := 60 + 40*r.Float64()
	for i := 0; i < 2; i++ {
		u := cg.MustAddPort(cdcs.Port{Name: fmt.Sprintf("src.out%d", i), Position: cdcs.Pt(2*r.NormFloat64(), 2*r.NormFloat64())})
		v := cg.MustAddPort(cdcs.Port{Name: fmt.Sprintf("dst.in%d", i), Position: cdcs.Pt(dist+2*r.NormFloat64(), 2*r.NormFloat64())})
		cg.MustAddChannel(cdcs.Channel{Name: fmt.Sprintf("ch%d", i), From: u, To: v, Bandwidth: 4 + 6*r.Float64()})
	}
	return cg
}
