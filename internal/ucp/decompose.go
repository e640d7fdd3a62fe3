package ucp

// Covering instances from the synthesis flow often decompose: channels
// in different regions share no merging candidates, so the covering
// matrix splits into independent blocks (connected components of the
// bipartite row–column incidence graph). Searching the blocks one after
// another is exponentially cheaper than branching over their union.

// block is a subproblem as two masks shaped like the matrix's own:
// rows still to cover (one bit per row) and the columns that may still
// be chosen (one bit per column).
type block struct{ rows, cols []uint64 }

// whole returns the entire instance as one block.
func (m *Matrix) whole() block {
	b := block{rows: make([]uint64, m.rowWords), cols: make([]uint64, m.colWords)}
	for r := 0; r < m.numRows; r++ {
		setBit(b.rows, r)
	}
	for j := range m.weight {
		setBit(b.cols, j)
	}
	return b
}

// blocks splits the instance into its independent blocks, ordered by
// their union-find roots, or returns it whole when it has at most one.
// No column covers rows of two blocks, so the blocks' optima sum to the
// instance's.
func (m *Matrix) blocks() []block {
	parent := make([]int, m.numRows)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	first := make([]int, len(m.colMask))
	var rows []int
	for j, cm := range m.colMask {
		rows = appendOnes(rows[:0], cm)
		first[j] = rows[0]
		for _, r := range rows[1:] {
			if a, b := find(rows[0]), find(r); a != b {
				parent[a] = b
			}
		}
	}
	id := make([]int, m.numRows)
	var out []block
	for r := range parent {
		if find(r) == r {
			id[r] = len(out)
			out = append(out, block{rows: make([]uint64, m.rowWords), cols: make([]uint64, m.colWords)})
		}
	}
	if len(out) <= 1 {
		return []block{m.whole()}
	}
	for r := range parent {
		setBit(out[id[find(r)]].rows, r)
	}
	for j, r := range first {
		setBit(out[id[find(r)]].cols, j)
	}
	return out
}
