package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ucp"
)

func TestNewProblemValidation(t *testing.T) {
	if _, err := NewProblem([]float64{1, -2}); err == nil {
		t.Error("negative cost should be rejected")
	}
	if _, err := NewProblem([]float64{math.NaN()}); err == nil {
		t.Error("NaN cost should be rejected")
	}
	if _, err := NewProblem([]float64{1, 2}); err != nil {
		t.Errorf("valid costs rejected: %v", err)
	}
}

func TestAddConstraintValidation(t *testing.T) {
	p, _ := NewProblem([]float64{1, 2})
	if err := p.AddConstraint(Constraint{Coeffs: map[int]float64{5: 1}, RHS: 1}); err == nil {
		t.Error("unknown variable should be rejected")
	}
	if err := p.AddConstraint(Constraint{Coeffs: map[int]float64{0: -1}, RHS: 1}); err == nil {
		t.Error("negative coefficient should be rejected")
	}
	if err := p.AddConstraint(Constraint{Coeffs: map[int]float64{0: 1}, RHS: math.NaN()}); err == nil {
		t.Error("NaN RHS should be rejected")
	}
}

func TestSolveSimpleCover(t *testing.T) {
	// min x0 + 2 x1 + 3 x2  s.t. x0+x2 ≥ 1, x1+x2 ≥ 1.
	p, _ := NewProblem([]float64{1, 2, 3})
	p.AddConstraint(Constraint{Coeffs: map[int]float64{0: 1, 2: 1}, RHS: 1})
	p.AddConstraint(Constraint{Coeffs: map[int]float64{1: 1, 2: 1}, RHS: 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Cost != 3 || !sol.X[0] || !sol.X[1] || sol.X[2] {
		t.Errorf("solution = %+v, want x0=x1=1", sol)
	}
}

func TestSolveMultiUnit(t *testing.T) {
	// Bandwidth-style: need total capacity 25 from units of 11 at cost 2
	// each or one unit of 30 at cost 5.
	p, _ := NewProblem([]float64{2, 2, 2, 5})
	p.AddConstraint(Constraint{
		Coeffs: map[int]float64{0: 11, 1: 11, 2: 11, 3: 30},
		RHS:    25,
	})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Cost != 5 {
		t.Errorf("cost = %v, want 5 (one big unit beats three small)", sol.Cost)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p, _ := NewProblem([]float64{1})
	p.AddConstraint(Constraint{Coeffs: map[int]float64{0: 1}, RHS: 2})
	if _, err := p.Solve(); err == nil {
		t.Error("infeasible problem should error")
	}
}

func TestSolveEmptyConstraints(t *testing.T) {
	p, _ := NewProblem([]float64{4, 5})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Cost != 0 {
		t.Errorf("unconstrained minimum should be all-zero, cost %v", sol.Cost)
	}
}

func TestCallerMutationInert(t *testing.T) {
	p, _ := NewProblem([]float64{1, 10})
	coeffs := map[int]float64{0: 1}
	p.AddConstraint(Constraint{Coeffs: coeffs, RHS: 1})
	coeffs[1] = 100 // mutate after adding; must not affect the problem
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Cost != 1 {
		t.Errorf("cost = %v, want 1", sol.Cost)
	}
}

// Property: the ILP formulation of random covering instances matches the
// UCP solver's optimum — the paper's "special case of 0-1 ILP" claim,
// used here as a cross-validation oracle.
func TestILPMatchesUCPProperty(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 80; trial++ {
		rows := 1 + r.Intn(6)
		cols := 1 + r.Intn(10)
		m := ucp.NewMatrix(rows)
		costs := make([]float64, cols)
		covers := make([][]int, cols)
		for j := 0; j < cols; j++ {
			var cover []int
			for rr := 0; rr < rows; rr++ {
				if r.Float64() < 0.5 {
					cover = append(cover, rr)
				}
			}
			if len(cover) == 0 {
				cover = []int{r.Intn(rows)}
			}
			w := 0.5 + r.Float64()*9
			costs[j] = w
			covers[j] = cover
			if _, err := m.AddColumn(ucp.Column{Rows: cover, Weight: w}); err != nil {
				t.Fatal(err)
			}
		}
		if !m.Feasible() {
			continue
		}
		ucpSol, err := m.SolveContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d ucp: %v", trial, err)
		}
		p, err := NewProblem(costs)
		if err != nil {
			t.Fatal(err)
		}
		for rr := 0; rr < rows; rr++ {
			coeffs := make(map[int]float64)
			for j, cover := range covers {
				for _, cr := range cover {
					if cr == rr {
						coeffs[j] = 1
					}
				}
			}
			if err := p.AddConstraint(Constraint{Coeffs: coeffs, RHS: 1}); err != nil {
				t.Fatal(err)
			}
		}
		ilpSol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d ilp: %v", trial, err)
		}
		if math.Abs(ilpSol.Cost-ucpSol.Cost) > 1e-9 {
			t.Fatalf("trial %d: ILP %v ≠ UCP %v", trial, ilpSol.Cost, ucpSol.Cost)
		}
	}
}
