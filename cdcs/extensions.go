package cdcs

import (
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/impl"
	"repro/internal/lid"
	"repro/internal/routing"
	"repro/internal/soc"
	"repro/internal/steiner"
	"repro/internal/traffic"
)

// Architecture statistics.

// ArchitectureStats summarizes an implementation graph's composition:
// link/node counts by type, lengths and cost split.
type ArchitectureStats = impl.Stats

// Stats computes the architecture summary.
func Stats(ig *ImplementationGraph) ArchitectureStats { return ig.Stats() }

// Rectilinear routing (on-chip, Manhattan-norm architectures).

// RoutingResult is a completed rectilinear wire embedding.
type RoutingResult = routing.Result

// RouteRectilinear embeds every link of a Manhattan-norm architecture
// as an L-shaped wire route with greedy congestion spreading.
func RouteRectilinear(ig *ImplementationGraph) (*RoutingResult, error) {
	return routing.RouteImplementation(ig)
}

// On-chip technology and latency-insensitive analysis.

// Technology describes a process node (critical length, wire bandwidth).
type Technology = soc.Technology

// Tech180nm is the paper's 0.18 µm process (l_crit = 0.6 mm).
func Tech180nm() Technology { return soc.Tech180nm() }

// LIDParams configures the latency-insensitive analysis.
type LIDParams = lid.Params

// LIDReport is the per-architecture latency/relay-station analysis.
type LIDReport = lid.ImplementationReport

// AnalyzeLatency runs the latency-insensitive treatment over a
// synthesized on-chip architecture: per-channel forward latency in
// clock cycles and the relay-station budget.
func AnalyzeLatency(ig *ImplementationGraph, p LIDParams) (*LIDReport, error) {
	return lid.AnalyzeImplementation(ig, p)
}

// Traffic characterization.

// TrafficSource is an on/off Markov fluid source.
type TrafficSource = traffic.Source

// EffectiveBandwidth returns the bandwidth requirement of a source at a
// buffer size and loss target — the b(a) to put on a channel.
func EffectiveBandwidth(s TrafficSource, buffer, epsilon float64) (float64, error) {
	return s.EffectiveBandwidth(buffer, epsilon)
}

// Steiner trees (topology-free wirelength bounds).

// SteinerResult is a rectilinear Steiner tree over a terminal set.
type SteinerResult = steiner.Tree

// SteinerLowerBound returns a rectilinear Steiner tree over the points —
// the wirelength floor for any structure connecting them (iterated
// 1-Steiner heuristic).
func SteinerLowerBound(terminals []geom.Point) (*SteinerResult, error) {
	return steiner.SteinerTree(terminals)
}

// Floorplanning (position derivation upstream of synthesis).

type (
	// FloorplanModule is a block to place.
	FloorplanModule = floorplan.Module
	// FloorplanDemand is a directed bandwidth demand between modules.
	FloorplanDemand = floorplan.Demand
	// Floorplan is a completed placement.
	Floorplan = floorplan.Placement
)

// PlaceModules anneals modules onto a slot grid minimizing
// bandwidth-weighted wirelength; seed makes the run reproducible.
func PlaceModules(modules []FloorplanModule, demands []FloorplanDemand, seed int64) (*Floorplan, error) {
	return floorplan.Place(modules, demands, floorplan.Options{Seed: seed})
}

// FloorplanToConstraintGraph converts a placement plus demands into a
// Manhattan-norm constraint graph ready for Synthesize.
func FloorplanToConstraintGraph(modules []FloorplanModule, demands []FloorplanDemand, pl *Floorplan) (*ConstraintGraph, error) {
	return floorplan.ToConstraintGraph(modules, demands, pl)
}
