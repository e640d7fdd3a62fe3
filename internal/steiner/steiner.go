// Package steiner builds rectilinear spanning and Steiner trees over
// point sets. In the CDCS context it provides the topology-free lower
// bound on interconnect length: any structure that connects a merged
// channel group's endpoints — the paper's two-hub star included — uses
// at least the rectilinear Steiner minimal tree's wirelength. The E14
// experiment uses this to quantify how close the paper's mux–trunk–
// demux realization comes to topology-optimal wiring.
//
// Algorithms: Prim's algorithm for the rectilinear minimum spanning
// tree (RMST), and the classical iterated 1-Steiner heuristic of
// Kahng–Robins for the Steiner tree — repeatedly add the Hanan-grid
// point that shrinks the RMST most, until no point helps. The heuristic
// is within a few percent of optimal on small instances and never
// worse than the RMST.
package steiner

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Tree is a rectilinear tree over the input terminals plus any added
// Steiner points.
type Tree struct {
	// Points holds the terminals (in input order) followed by the
	// Steiner points the heuristic added.
	Points []geom.Point
	// Terminals is the number of input terminals (a prefix of Points).
	Terminals int
	// Edges connect indices into Points; each edge is realized as an
	// L-shaped rectilinear wire of the Manhattan length between its
	// endpoints.
	Edges [][2]int
	// Length is the total rectilinear wirelength.
	Length float64
}

// SpanningTree returns the rectilinear minimum spanning tree of the
// points (Prim, O(n²)).
func SpanningTree(pts []geom.Point) (*Tree, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("steiner: no points")
	}
	n := len(pts)
	inTree := make([]bool, n)
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[0] = 0
	t := &Tree{Points: append([]geom.Point(nil), pts...), Terminals: n}
	for iter := 0; iter < n; iter++ {
		best := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (best < 0 || dist[v] < dist[best]) {
				best = v
			}
		}
		inTree[best] = true
		if parent[best] >= 0 {
			t.Edges = append(t.Edges, [2]int{parent[best], best})
			t.Length += dist[best]
		}
		for v := 0; v < n; v++ {
			if inTree[v] {
				continue
			}
			if d := geom.Manhattan.Distance(pts[best], pts[v]); d < dist[v] {
				dist[v] = d
				parent[v] = best
			}
		}
	}
	return t, nil
}

// mstLength returns just the RMST length (no tree construction), used
// in the inner loop of the 1-Steiner iteration.
func mstLength(pts []geom.Point) float64 {
	n := len(pts)
	if n <= 1 {
		return 0
	}
	inTree := make([]bool, n)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	var total float64
	for iter := 0; iter < n; iter++ {
		best := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (best < 0 || dist[v] < dist[best]) {
				best = v
			}
		}
		inTree[best] = true
		total += dist[best]
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := geom.Manhattan.Distance(pts[best], pts[v]); d < dist[v] {
					dist[v] = d
				}
			}
		}
	}
	return total
}

// minGain is the smallest absolute length improvement worth adding a
// Steiner point for.
const minGain = 1e-9

// SteinerTree runs iterated 1-Steiner over the terminals, adding at most
// len(terminals) − 2 Hanan points (the theoretical maximum useful count).
func SteinerTree(terminals []geom.Point) (*Tree, error) {
	if len(terminals) == 0 {
		return nil, fmt.Errorf("steiner: no terminals")
	}
	maxAdd := max(len(terminals)-2, 0)

	pts := append([]geom.Point(nil), terminals...)
	current := mstLength(pts)
	for added := 0; added < maxAdd; added++ {
		bestGain := minGain
		var bestPt geom.Point
		found := false
		// Hanan grid of the current point set.
		for _, hx := range pts {
			for _, hy := range pts {
				c := geom.Pt(hx.X, hy.Y)
				if containsPoint(pts, c) {
					continue
				}
				l := mstLength(append(pts, c))
				if gain := current - l; gain > bestGain {
					bestGain, bestPt, found = gain, c, true
				}
			}
		}
		if !found {
			break
		}
		pts = append(pts, bestPt)
		current -= bestGain
	}

	tree, err := SpanningTree(pts)
	if err != nil {
		return nil, err
	}
	tree.Terminals = len(terminals)
	// Prune degree-≤1 Steiner points (they only add length); repeat to
	// a fixed point.
	tree = pruneUselessSteiner(tree)
	return tree, nil
}

// pruneUselessSteiner removes Steiner points of degree ≤ 1 (a leaf
// Steiner point never helps) and rebuilds the tree over the survivors.
func pruneUselessSteiner(t *Tree) *Tree {
	for {
		deg := make([]int, len(t.Points))
		for _, e := range t.Edges {
			deg[e[0]]++
			deg[e[1]]++
		}
		keep := make([]geom.Point, 0, len(t.Points))
		removed := false
		for i, p := range t.Points {
			if i >= t.Terminals && deg[i] <= 1 {
				removed = true
				continue
			}
			keep = append(keep, p)
		}
		if !removed {
			return t
		}
		nt, err := SpanningTree(keep)
		if err != nil {
			return t
		}
		nt.Terminals = t.Terminals
		t = nt
	}
}

// HalfPerimeter returns the half-perimeter wirelength bound (HPWL) of
// the points: a lower bound on any connected rectilinear structure.
func HalfPerimeter(pts []geom.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	b := geom.Bounds(pts)
	return b.Width() + b.Height()
}

func containsPoint(pts []geom.Point, p geom.Point) bool {
	for _, q := range pts {
		if q.Eq(p) {
			return true
		}
	}
	return false
}
