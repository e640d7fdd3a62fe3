// Package ilp provides a small exact 0-1 integer linear program solver
// for covering-style problems: minimize c·x subject to A·x ≥ rhs with
// non-negative coefficients and binary variables.
//
// The paper observes that Problem 2.1 "can be seen as a special case of
// 0-1 integer linear programming"; this solver provides an independent
// formulation of the covering step so the UCP branch-and-bound can be
// cross-validated on the same instances. It is deliberately simple — a
// depth-first branch-and-bound with feasibility and incumbent pruning —
// and intended for the modest instance sizes of tests and experiments.
package ilp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/num"
)

// Constraint is Σᵢ Coeffs[i]·xᵢ ≥ RHS with non-negative coefficients.
type Constraint struct {
	// Coeffs maps variable index to its (non-negative) coefficient.
	Coeffs map[int]float64
	// RHS is the constraint's right-hand side.
	RHS float64
}

// Problem is a 0-1 ILP: minimize Costs·x subject to the constraints.
type Problem struct {
	costs       []float64
	constraints []Constraint
}

// NewProblem creates a problem over numVars binary variables with the
// given objective costs (must be non-negative and finite).
func NewProblem(costs []float64) (*Problem, error) {
	for i, c := range costs {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("ilp: cost of x%d is invalid: %g", i, c)
		}
	}
	return &Problem{costs: append([]float64(nil), costs...)}, nil
}

// NumVars returns the number of binary variables.
func (p *Problem) NumVars() int { return len(p.costs) }

// AddConstraint adds Σ coeff·x ≥ rhs. Coefficients must be non-negative;
// variables out of range are rejected.
func (p *Problem) AddConstraint(c Constraint) error {
	for v, coeff := range c.Coeffs {
		if v < 0 || v >= len(p.costs) {
			return fmt.Errorf("ilp: constraint references unknown variable x%d", v)
		}
		if coeff < 0 || math.IsNaN(coeff) {
			return fmt.Errorf("ilp: negative coefficient %g on x%d", coeff, v)
		}
	}
	if math.IsNaN(c.RHS) {
		return fmt.Errorf("ilp: NaN right-hand side")
	}
	// Deep-copy the coefficient map so later caller mutations are inert.
	coeffs := make(map[int]float64, len(c.Coeffs))
	for v, coeff := range c.Coeffs {
		if coeff > 0 {
			coeffs[v] = coeff
		}
	}
	p.constraints = append(p.constraints, Constraint{Coeffs: coeffs, RHS: c.RHS})
	return nil
}

// Solution is an optimal assignment.
type Solution struct {
	// X is the binary assignment.
	X []bool
	// Cost is the objective value.
	Cost float64
	// Nodes counts branch-and-bound nodes explored.
	Nodes int
}

// Solve returns a provably optimal solution, or an error when the
// problem is infeasible (even x = 1…1 violates some constraint).
func (p *Problem) Solve() (Solution, error) {
	n := len(p.costs)
	// slack[k] tracks RHS minus contribution of assigned-1 variables;
	// potential[k] tracks the maximum additional contribution available
	// from unassigned variables.
	slack := make([]float64, len(p.constraints))
	potential := make([]float64, len(p.constraints))
	for k, c := range p.constraints {
		slack[k] = c.RHS
		for _, coeff := range c.Coeffs {
			potential[k] += coeff
		}
		if num.Less(potential[k], c.RHS) {
			return Solution{}, fmt.Errorf("ilp: constraint %d infeasible even with all variables set", k)
		}
	}
	// Branch on expensive variables first: their exclusion prunes most.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return num.Below(p.costs[order[b]], p.costs[order[a]]) })

	s := &solver{
		p:        p,
		order:    order,
		bestCost: math.Inf(1),
		x:        make([]bool, n),
	}
	s.branch(0, 0, slack, potential)
	if math.IsInf(s.bestCost, 1) {
		return Solution{}, fmt.Errorf("ilp: infeasible")
	}
	return Solution{X: s.bestX, Cost: s.bestCost, Nodes: s.nodes}, nil
}

type solver struct {
	p        *Problem
	order    []int
	bestCost float64
	bestX    []bool
	x        []bool
	nodes    int
}

func (s *solver) branch(depth int, cost float64, slack, potential []float64) {
	s.nodes++
	if num.NoBetter(cost, s.bestCost) {
		return
	}
	// Feasibility: every constraint must still be satisfiable.
	satisfied := true
	for k := range slack {
		if num.Positive(slack[k]) {
			satisfied = false
			if num.Less(potential[k], slack[k]) {
				return // dead end
			}
		}
	}
	if satisfied {
		if num.Improves(cost, s.bestCost) {
			s.bestCost = cost
			s.bestX = append([]bool(nil), s.x...)
		}
		return
	}
	if depth == len(s.order) {
		return
	}
	v := s.order[depth]

	// Branch x_v = 0: remove v's potential.
	pot0 := append([]float64(nil), potential...)
	for k, c := range s.p.constraints {
		if coeff, ok := c.Coeffs[v]; ok {
			pot0[k] -= coeff
		}
	}
	s.x[v] = false
	s.branch(depth+1, cost, slack, pot0)

	// Branch x_v = 1: reduce slack and potential.
	slack1 := append([]float64(nil), slack...)
	pot1 := append([]float64(nil), potential...)
	for k, c := range s.p.constraints {
		if coeff, ok := c.Coeffs[v]; ok {
			slack1[k] -= coeff
			pot1[k] -= coeff
		}
	}
	s.x[v] = true
	s.branch(depth+1, cost+s.p.costs[v], slack1, pot1)
	s.x[v] = false
}
