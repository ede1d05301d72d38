package ilp

// SolvePool is Solve on a branch & bound pool of the given size. Only
// the external test package sees it: no exported name sets the pool.
func SolvePool(m *Model, opts Options, workers int) (Solution, error) {
	return solve(m, opts, workers)
}
