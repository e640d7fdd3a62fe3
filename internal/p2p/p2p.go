// Package p2p implements the optimum point-to-point synthesis of
// Definitions 2.6–2.7 and Lemma 2.1: each constraint arc is implemented
// in isolation by the cheapest combination of
//
//   - arc matching       — exactly one library link;
//   - K-way segmentation — K links in series, interleaved by K−1
//     repeaters, when no single link spans the distance;
//   - K-way duplication  — K links in parallel, when no single link
//     provides the bandwidth;
//   - both combined      — parallel chains of segmented links.
//
// Following Definition 2.7, a duplication is a set of parallel paths
// between the two computational vertices and costs no switches (the
// paper's introduction mentions a mux/demux pair, its formal
// definition does not cost it). Placement's merged trunk must be one
// chain, the common path q* of Definition 2.8, so BestPlan and
// Curve.Reset take a oneChain argument that rules duplication out.
//
// Segmentation places repeaters at even spacing along the straight
// segment between the endpoints. Under every built-in norm the straight
// segment realizes the endpoint distance exactly, so K even segments
// each measure d/K.
package p2p

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/impl"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/num"
)

// maxUnits bounds the segments and the chains of a plan. A plan that
// needs more is infeasible, which keeps the counts far from overflow.
const maxUnits = 1 << 20

// maxChains is the chain bound of a plan, 1 for a oneChain plan.
func maxChains(oneChain bool) int {
	if oneChain {
		return 1
	}
	return maxUnits
}

// Plan is the cheapest stand-alone implementation found for one
// (distance, bandwidth) requirement: Chains parallel chains, each made
// of Segments equal-length instances of Link joined by repeaters.
type Plan struct {
	Link     library.Link
	Segments int // links per chain (1 = plain matching)
	Chains   int // parallel chains (1 = no duplication)
	Cost     float64
	// Distance and Bandwidth echo the requirement the plan satisfies.
	Distance, Bandwidth float64
}

// Kind names the Definition 2.7 structure the plan realizes.
func (p Plan) Kind() string {
	switch {
	case p.Segments == 1 && p.Chains == 1:
		return "matching"
	case p.Chains == 1:
		return "segmentation"
	case p.Segments == 1:
		return "duplication"
	default:
		return "segmentation+duplication"
	}
}

// String renders the plan compactly.
func (p Plan) String() string {
	return fmt.Sprintf("%s: %d×%d %s, cost %.3f", p.Kind(), p.Chains, p.Segments, p.Link.Name, p.Cost)
}

// planFor evaluates the cheapest plan using one specific link type, or
// ok=false when that type cannot satisfy the requirement.
func planFor(l library.Link, d, b float64, lib *library.Library, oneChain bool) (Plan, bool) {
	if l.Bandwidth <= 0 {
		return Plan{}, false
	}
	chains := 1
	if num.Below(l.Bandwidth, b) {
		chains = num.Ceil(b / l.Bandwidth)
		if chains > maxChains(oneChain) {
			return Plan{}, false
		}
	}
	segments := 1
	if !l.CanSpan(d) {
		if l.MaxSpan <= 0 {
			return Plan{}, false
		}
		segments = num.Ceil(d / l.MaxSpan)
		if segments < 1 {
			segments = 1
		}
		if segments > maxUnits {
			return Plan{}, false
		}
	}
	repCost := 0.0
	if segments > 1 {
		repCost = lib.NodeCost(library.Repeater)
		if math.IsInf(repCost, 1) {
			return Plan{}, false // segmentation impossible without repeaters
		}
	}
	chainCost := float64(segments)*l.CostFixed + l.CostPerLength*d + float64(segments-1)*repCost
	return Plan{
		Link:      l,
		Segments:  segments,
		Chains:    chains,
		Cost:      float64(chains) * chainCost,
		Distance:  d,
		Bandwidth: b,
	}, true
}

// BestPlan returns the minimum-cost stand-alone implementation of a
// requirement (distance d, bandwidth b) over all library link types, per
// the four-step recipe below Definition 2.7, with a single chain when
// oneChain is set. It returns an error when no link type can satisfy
// the requirement within 1<<20 segments and chains, and for a
// negative, NaN or infinite distance or bandwidth: an infinite
// distance admits no finite-cost plan, and an infinite bandwidth would
// overflow the chain count.
func BestPlan(d, b float64, lib *library.Library, oneChain bool) (Plan, error) {
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 1) {
		return Plan{}, fmt.Errorf("p2p: invalid distance %g", d)
	}
	if b <= 0 || math.IsNaN(b) || math.IsInf(b, 1) {
		return Plan{}, fmt.Errorf("p2p: invalid bandwidth %g", b)
	}
	var best Plan
	found := false
	for _, l := range lib.Links {
		p, ok := planFor(l, d, b, lib, oneChain)
		if !ok {
			continue
		}
		if !found || num.Improves(p.Cost, best.Cost) {
			best, found = p, true
		}
	}
	if !found {
		return Plan{}, fmt.Errorf("p2p: no library link satisfies d=%g b=%g", d, b)
	}
	return best, nil
}

// Curve is BestPlan's cost as a function of distance alone. For one
// fixed bandwidth, library and chain rule it hoists what planFor
// derives per call: each link's chain count, its feasibility and the
// repeater cost. Cost(d) is then a few multiply-adds per link, with no
// error values, lookups or allocations. Placement prices thousands of
// probe positions per candidate at k+1 fixed bandwidths, which is what
// the curve is for; BestPlan stays the reference it must agree with.
//
// The zero Curve prices every distance at +Inf. Reset re-targets a
// curve and reuses its storage.
type Curve struct {
	terms []curveTerm
}

// curveTerm is planFor for one link with everything but the segment
// count resolved.
type curveTerm struct {
	chains, fixed, perLength, maxSpan float64
	// repeater is the cost of one repeater, or 0 when maxSegments is 1
	// because the library has none.
	repeater    float64
	maxSegments int
}

// Reset makes c the curve of bandwidth b over lib, single-chain when
// oneChain is set, reusing c's storage.
func (c *Curve) Reset(b float64, lib *library.Library, oneChain bool) {
	c.terms = c.terms[:0]
	if b <= 0 || math.IsNaN(b) || math.IsInf(b, 1) {
		return // BestPlan rejects the bandwidth at every distance
	}
	maxSegments, repeater := maxUnits, lib.NodeCost(library.Repeater)
	if math.IsInf(repeater, 1) {
		maxSegments, repeater = 1, 0
	}
	for _, l := range lib.Links {
		if l.Bandwidth <= 0 {
			continue
		}
		chains := 1
		if num.Below(l.Bandwidth, b) {
			chains = num.Ceil(b / l.Bandwidth)
			if chains > maxChains(oneChain) {
				continue
			}
		}
		t := curveTerm{
			chains: float64(chains), fixed: l.CostFixed, perLength: l.CostPerLength,
			maxSpan: l.MaxSpan, repeater: repeater, maxSegments: maxSegments,
		}
		if l.MaxSpan <= 0 {
			t.maxSegments = 0 // planFor cannot segment such a link
		}
		c.terms = append(c.terms, t)
	}
}

// Cost returns BestPlan(d, b, lib, oneChain).Cost for the curve's b,
// lib and chain rule, bit for bit, and +Inf exactly where BestPlan
// errors. The arithmetic mirrors planFor term by term so that no
// rounding differs.
func (c *Curve) Cost(d float64) float64 {
	best := math.Inf(1)
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 1) {
		return best
	}
	for i := range c.terms {
		t := &c.terms[i]
		segments := 1
		if !num.AtMost(d, t.maxSpan) {
			if segments = num.Ceil(d / t.maxSpan); segments < 1 {
				segments = 1
			}
			if segments > t.maxSegments {
				continue
			}
		}
		cost := t.chains * (float64(segments)*t.fixed + t.perLength*d + float64(segments-1)*t.repeater)
		if num.Improves(cost, best) {
			best = cost
		}
	}
	return best
}

// Envelope returns a line slope·d + intercept that lies under Cost(d)
// for every d ≥ 0, the piece weight of placement's lower bound. Each
// term contributes chains·CostPerLength as its slope and its
// distance-free cost as its intercept. A term that can segment pays
// CostFixed plus a repeater for every MaxSpan it covers (less one
// repeater), so its slope steepens by chains·(CostFixed+repeater)/MaxSpan
// and its intercept drops by one repeater per chain and by the Eps that
// num.Ceil may round off the segment count. The envelope takes the
// minimum slope and the minimum intercept over the terms; the zero
// Curve's envelope is (+Inf, +Inf). When every link is unbounded with
// zero fixed cost, the slope is the per-length weight the curve's
// cheapest plan charges and the intercept is zero.
func (c *Curve) Envelope() (slope, intercept float64) {
	slope, intercept = math.Inf(1), math.Inf(1)
	for i := range c.terms {
		t := &c.terms[i]
		s, b := t.chains*t.perLength, t.chains*t.fixed
		if t.maxSegments > 1 && !math.IsInf(t.maxSpan, 1) {
			perSegment := t.fixed + t.repeater
			s = t.chains * (t.perLength + perSegment/t.maxSpan)
			b = -t.chains * (t.repeater + num.Eps*perSegment)
		}
		slope, intercept = math.Min(slope, s), math.Min(intercept, b)
	}
	return slope, intercept
}

// Instantiate materializes a plan for channel ch into the implementation
// graph: it creates the repeater vertices and link instances and records
// the resulting path set P(a).
func Instantiate(ig *impl.Graph, ch model.ChannelID, plan Plan, lib *library.Library) error {
	cg := ig.ConstraintGraph()
	c := cg.Channel(ch)
	paths, err := BuildChains(ig, graph.VertexID(c.From), graph.VertexID(c.To), plan, lib, c.Name)
	if err != nil {
		return fmt.Errorf("p2p: channel %q: %w", c.Name, err)
	}
	ig.AssignImplementation(ch, paths)
	return nil
}

// Synthesize builds the optimum point-to-point implementation graph of
// Definition 2.6: every constraint arc implemented independently at
// minimum cost, with pairwise-disjoint arc implementations. It returns
// the graph together with the per-channel plans; per Lemma 2.1 the graph
// cost equals the sum of the plan costs.
func Synthesize(cg *model.ConstraintGraph, lib *library.Library) (*impl.Graph, []Plan, error) {
	if err := cg.Validate(); err != nil {
		return nil, nil, err
	}
	if err := lib.Validate(); err != nil {
		return nil, nil, err
	}
	ig := impl.New(cg)
	plans := make([]Plan, cg.NumChannels())
	for i := 0; i < cg.NumChannels(); i++ {
		ch := model.ChannelID(i)
		plan, err := BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, false)
		if err != nil {
			return nil, nil, fmt.Errorf("p2p: channel %q: %w", cg.Channel(ch).Name, err)
		}
		if err := Instantiate(ig, ch, plan, lib); err != nil {
			return nil, nil, err
		}
		plans[i] = plan
	}
	return ig, plans, nil
}
