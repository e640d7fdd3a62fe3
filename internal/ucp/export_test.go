package ucp

// MustAddColumn is AddColumn that panics on error, for tests that
// build instances known to be valid.
func (m *Matrix) MustAddColumn(c Column) int {
	j, err := m.AddColumn(c)
	if err != nil {
		panic(err)
	}
	return j
}
