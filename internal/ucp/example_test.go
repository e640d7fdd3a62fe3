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
	names := []string{"bundle", "r0", "r1", "r2"}
	m := ucp.NewMatrix(3)
	for i, c := range []ucp.Column{
		{Rows: []int{0, 1, 2}, Weight: 2.5},
		{Rows: []int{0}, Weight: 1},
		{Rows: []int{1}, Weight: 1},
		{Rows: []int{2}, Weight: 1},
	} {
		if _, err := m.AddColumn(c); err != nil {
			fmt.Println(names[i], err)
		}
	}

	sol, _ := m.SolveContext(context.Background())
	fmt.Printf("cost %.1f using %d column(s): %s\n",
		sol.Cost, len(sol.Columns), names[sol.Columns[0]])
	// Output:
	// cost 2.5 using 1 column(s): bundle
}
