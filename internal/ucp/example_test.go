package ucp_test

import (
	"context"
	"fmt"

	"repro/internal/ucp"
)

// Example solves a tiny weighted covering instance: a bundle column
// covering all three rows beats the three singletons when its weight is
// below their sum.
func Example() {
	cols := []ucp.Column{
		{Rows: []int{0, 1, 2}, Weight: 2.5, Label: "bundle"},
		{Rows: []int{0}, Weight: 1, Label: "r0"},
		{Rows: []int{1}, Weight: 1, Label: "r1"},
		{Rows: []int{2}, Weight: 1, Label: "r2"},
	}
	m := ucp.NewMatrix(3)
	for _, c := range cols {
		m.MustAddColumn(c)
	}

	sol, _ := m.SolveContext(context.Background())
	fmt.Printf("cost %.1f using %d column(s): %s\n",
		sol.Cost, len(sol.Columns), cols[sol.Columns[0]].Label)
	// Output:
	// cost 2.5 using 1 column(s): bundle
}
