// Package floorplan places computational modules on a die or board —
// the step upstream of constraint-driven communication synthesis. The
// paper assumes module positions are given ("once their relative
// positions and required pairwise communication bandwidth is
// provided"); this package produces them: a slot-grid simulated
// annealer that minimizes the bandwidth-weighted Manhattan wirelength
// of the inter-module demands, i.e. exactly the cost the downstream
// synthesizer will have to pay for.
//
// The model is deliberately simple (equal-size slots, module centers,
// swap/relocate moves) — enough to generate realistic clustered
// instances and to study how placement quality propagates into
// synthesis cost.
package floorplan

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/model"
)

// Module is a computational block to place.
type Module struct {
	// Name identifies the module; names must be unique and non-empty.
	Name string
}

// Demand is a directed communication requirement between two modules.
type Demand struct {
	// From and To index into the module slice.
	From, To int
	// Bandwidth weighs the demand in the wirelength objective and
	// becomes the channel bandwidth downstream.
	Bandwidth float64
}

// Options tunes the annealer. The zero value gives sensible defaults.
type Options struct {
	// Seed makes the run reproducible.
	Seed int64
	// Iterations is the number of annealing moves; zero means 20000.
	Iterations int
	// SlotPitch is the center-to-center slot distance; zero means 2.0.
	SlotPitch float64
}

func (o Options) iterations() int {
	if o.Iterations <= 0 {
		return 20000
	}
	return o.Iterations
}

func (o Options) slotPitch() float64 {
	if o.SlotPitch <= 0 {
		return 2.0
	}
	return o.SlotPitch
}

// Placement is a completed floorplan.
type Placement struct {
	// Positions holds each module's center, indexed like the input.
	Positions []geom.Point
	// Wirelength is the bandwidth-weighted Manhattan wirelength
	// Σ b·‖p(from) − p(to)‖₁ over the demands.
	Wirelength float64
	// Moves and Accepted count annealing statistics.
	Moves, Accepted int
}

// Place anneals the modules onto a near-square slot grid.
func Place(modules []Module, demands []Demand, opt Options) (*Placement, error) {
	n := len(modules)
	if n == 0 {
		return nil, fmt.Errorf("floorplan: no modules")
	}
	names := make(map[string]bool, n)
	for _, m := range modules {
		if m.Name == "" {
			return nil, fmt.Errorf("floorplan: module with empty name")
		}
		if names[m.Name] {
			return nil, fmt.Errorf("floorplan: duplicate module %q", m.Name)
		}
		names[m.Name] = true
	}
	for _, d := range demands {
		if d.From < 0 || d.From >= n || d.To < 0 || d.To >= n {
			return nil, fmt.Errorf("floorplan: demand references module out of range")
		}
		if d.From == d.To {
			return nil, fmt.Errorf("floorplan: self demand on module %d", d.From)
		}
		if d.Bandwidth <= 0 {
			return nil, fmt.Errorf("floorplan: non-positive demand bandwidth")
		}
	}

	// Slot grid: the smallest square that fits all modules, plus slack
	// so relocation moves exist.
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if side*side == n {
		side++
	}
	pitch := opt.slotPitch()
	slotPos := func(slot int) geom.Point {
		return geom.Pt(float64(slot%side)*pitch, float64(slot/side)*pitch)
	}
	nSlots := side * side

	r := rand.New(rand.NewSource(opt.Seed))
	// slotOf[m] = slot of module m; modAt[s] = module in slot s or -1.
	slotOf := make([]int, n)
	modAt := make([]int, nSlots)
	for i := range modAt {
		modAt[i] = -1
	}
	perm := r.Perm(nSlots)
	for m := 0; m < n; m++ {
		slotOf[m] = perm[m]
		modAt[perm[m]] = m
	}

	cost := func() float64 {
		var total float64
		for _, d := range demands {
			total += d.Bandwidth * geom.Manhattan.Distance(slotPos(slotOf[d.From]), slotPos(slotOf[d.To]))
		}
		return total
	}
	// Incremental delta for moving module m to slot s (and the occupant,
	// if any, to m's slot).
	moduleCost := func(m int, posOf func(int) geom.Point) float64 {
		var total float64
		for _, d := range demands {
			if d.From == m || d.To == m {
				total += d.Bandwidth * geom.Manhattan.Distance(posOf(d.From), posOf(d.To))
			}
		}
		return total
	}

	cur := cost()
	// The annealing schedule starts near one demand's cost and cools by
	// 0.995 every 100 moves.
	temp := cur / math.Max(1, float64(len(demands)))
	if temp <= 0 {
		temp = 1
	}
	const cooling = 0.995

	pl := &Placement{}
	for iter := 0; iter < opt.iterations(); iter++ {
		pl.Moves++
		m := r.Intn(n)
		s := r.Intn(nSlots)
		oldSlot := slotOf[m]
		if s == oldSlot {
			continue
		}
		other := modAt[s]

		posBefore := func(x int) geom.Point { return slotPos(slotOf[x]) }
		before := moduleCost(m, posBefore)
		if other >= 0 && other != m {
			before += moduleCost(other, posBefore)
			// Shared demands double-count symmetrically before and after,
			// so the delta stays exact.
		}
		// Tentatively apply.
		slotOf[m] = s
		modAt[s] = m
		modAt[oldSlot] = other
		if other >= 0 {
			slotOf[other] = oldSlot
		}
		after := moduleCost(m, posBefore)
		if other >= 0 && other != m {
			after += moduleCost(other, posBefore)
		}
		delta := after - before
		if delta <= 0 || r.Float64() < math.Exp(-delta/temp) {
			cur += delta
			pl.Accepted++
		} else {
			// Revert.
			slotOf[m] = oldSlot
			modAt[oldSlot] = m
			modAt[s] = other
			if other >= 0 {
				slotOf[other] = s
			}
		}
		if iter%100 == 99 {
			temp *= cooling
		}
	}

	pl.Positions = make([]geom.Point, n)
	for m := 0; m < n; m++ {
		pl.Positions[m] = slotPos(slotOf[m])
	}
	pl.Wirelength = cost()
	return pl, nil
}

// ToConstraintGraph converts a placement plus demands into a CDCS
// constraint graph: one dedicated port pair per demand, positioned at
// the module centers, under the Manhattan norm.
func ToConstraintGraph(modules []Module, demands []Demand, pl *Placement) (*model.ConstraintGraph, error) {
	if len(pl.Positions) != len(modules) {
		return nil, fmt.Errorf("floorplan: placement/module count mismatch")
	}
	cg := model.NewConstraintGraph(geom.Manhattan)
	for i, d := range demands {
		name := fmt.Sprintf("%s-%s.%d", modules[d.From].Name, modules[d.To].Name, i)
		src, err := cg.AddPort(model.Port{
			Name:     name + ".out",
			Module:   modules[d.From].Name,
			Position: pl.Positions[d.From],
		})
		if err != nil {
			return nil, err
		}
		dst, err := cg.AddPort(model.Port{
			Name:     name + ".in",
			Module:   modules[d.To].Name,
			Position: pl.Positions[d.To],
		})
		if err != nil {
			return nil, err
		}
		if _, err := cg.AddChannel(model.Channel{
			Name: name, From: src, To: dst, Bandwidth: d.Bandwidth,
		}); err != nil {
			return nil, err
		}
	}
	return cg, nil
}
