// Package routing embeds an on-chip implementation graph's link
// instances as rectilinear wire routes on the die, the detailed step
// behind the paper's Figure 5 picture: every link becomes an L-shaped
// (horizontal-vertical or vertical-horizontal) Manhattan path, elbows
// are chosen greedily to spread congestion, and the result reports
// wirelength and a congestion map.
//
// Routing is geometric only — it embeds exactly the links the
// synthesizer produced and never alters the architecture. Because the
// synthesizer segments wires at l_crit, each routed piece is one metal
// segment between two repeaters (or a port), matching how the paper's
// repeater-insertion result would reach layout.
package routing

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/impl"
)

// gridCells is the congestion-grid resolution per axis.
const gridCells = 32

// Route is one link instance's embedded wire.
type Route struct {
	// Arc identifies the link instance.
	Arc graph.ArcID
	// Points is the axis-aligned polyline from the source vertex to
	// the target vertex (2 points when aligned, 3 with an elbow).
	Points []geom.Point
	// Length is the route's Manhattan wirelength.
	Length float64
}

// Result is a completed routing.
type Result struct {
	Routes []Route
	// TotalWirelength sums all route lengths.
	TotalWirelength float64
	// GridCells is the congestion grid resolution used.
	GridCells int
	// MaxOverlap is the largest number of routes crossing one grid
	// cell; MeanOverlap averages over non-empty cells.
	MaxOverlap  int
	MeanOverlap float64
	// Congestion is the per-cell route count, row-major with
	// Congestion[y][x], y increasing northwards; Bounds is the region
	// the grid covers.
	Congestion [][]int
	Bounds     geom.BoundingBox
}

// RouteImplementation embeds every link of a Manhattan-norm
// implementation graph. Links are processed in ID order; for each, the
// elbow (HV vs VH) with the lower current congestion is chosen, then
// the route is committed to the congestion grid.
func RouteImplementation(ig *impl.Graph) (*Result, error) {
	cg := ig.ConstraintGraph()
	if cg.Norm().Name() != "manhattan" {
		return nil, fmt.Errorf("routing: rectilinear routing requires the Manhattan norm, got %s", cg.Norm().Name())
	}
	n := ig.NumLinks()
	res := &Result{GridCells: gridCells}
	if n == 0 {
		return res, nil
	}

	// Congestion grid over the bounding box of all vertices.
	var pts []geom.Point
	for v := 0; v < ig.NumVertices(); v++ {
		pts = append(pts, ig.Vertex(graph.VertexID(v)).Position)
	}
	bb := geom.Bounds(pts).Expand(1e-9)
	grid := newCongestionGrid(bb, res.GridCells)

	for a := 0; a < n; a++ {
		id := graph.ArcID(a)
		arc := ig.Digraph().Arc(id)
		from := ig.Vertex(arc.From).Position
		to := ig.Vertex(arc.To).Position

		hv := lPath(from, to, true)
		vh := lPath(from, to, false)
		chosen := hv
		if grid.pathCost(vh) < grid.pathCost(hv) {
			chosen = vh
		}
		grid.commit(chosen)
		route := Route{
			Arc:    id,
			Points: chosen,
			Length: geom.PathLength(geom.Manhattan, chosen),
		}
		res.Routes = append(res.Routes, route)
		res.TotalWirelength += route.Length
	}
	res.MaxOverlap, res.MeanOverlap = grid.stats()
	res.Bounds = bb
	res.Congestion = make([][]int, grid.cells)
	for y := 0; y < grid.cells; y++ {
		res.Congestion[y] = append([]int(nil), grid.count[y*grid.cells:(y+1)*grid.cells]...)
	}
	return res, nil
}

// lPath returns the L-shaped polyline from a to b: horizontal-first
// when hFirst, vertical-first otherwise. Degenerate (aligned) pairs
// yield a 2-point segment.
func lPath(a, b geom.Point, hFirst bool) []geom.Point {
	if a.X == b.X || a.Y == b.Y {
		return []geom.Point{a, b}
	}
	if hFirst {
		return []geom.Point{a, geom.Pt(b.X, a.Y), b}
	}
	return []geom.Point{a, geom.Pt(a.X, b.Y), b}
}

// congestionGrid counts route occupancy per cell.
type congestionGrid struct {
	bb    geom.BoundingBox
	cells int
	count []int
}

func newCongestionGrid(bb geom.BoundingBox, cells int) *congestionGrid {
	return &congestionGrid{bb: bb, cells: cells, count: make([]int, cells*cells)}
}

func (g *congestionGrid) cellAt(p geom.Point) int {
	w := g.bb.Width()
	h := g.bb.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	cx := int((p.X - g.bb.Min.X) / w * float64(g.cells))
	cy := int((p.Y - g.bb.Min.Y) / h * float64(g.cells))
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cells {
		cx = g.cells - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.cells {
		cy = g.cells - 1
	}
	return cy*g.cells + cx
}

// cellsOf rasterizes a polyline into the set of cells it touches,
// sampling each segment at sub-cell resolution.
func (g *congestionGrid) cellsOf(path []geom.Point) []int {
	seen := make(map[int]bool)
	var cells []int
	step := math.Max(g.bb.Width(), g.bb.Height()) / float64(g.cells) / 2
	if step <= 0 {
		step = 1
	}
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		segLen := geom.Manhattan.Distance(a, b)
		samples := int(segLen/step) + 1
		for s := 0; s <= samples; s++ {
			t := float64(s) / float64(samples)
			c := g.cellAt(a.Lerp(b, t))
			if !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// pathCost scores a candidate path by its current congestion: the sum
// of squared occupancy over touched cells (quadratic so hot cells repel
// strongly).
func (g *congestionGrid) pathCost(path []geom.Point) float64 {
	var cost float64
	for _, c := range g.cellsOf(path) {
		occ := float64(g.count[c])
		cost += occ * occ
	}
	return cost
}

func (g *congestionGrid) commit(path []geom.Point) {
	for _, c := range g.cellsOf(path) {
		g.count[c]++
	}
}

func (g *congestionGrid) stats() (maxOverlap int, meanOverlap float64) {
	nonEmpty := 0
	total := 0
	for _, c := range g.count {
		if c == 0 {
			continue
		}
		nonEmpty++
		total += c
		if c > maxOverlap {
			maxOverlap = c
		}
	}
	if nonEmpty > 0 {
		meanOverlap = float64(total) / float64(nonEmpty)
	}
	return maxOverlap, meanOverlap
}
