package sim

// SetTestHookSortRun installs f as testHookSortRun for the tests of
// package sim_test, and returns the function that removes it.
func SetTestHookSortRun(f func(n int)) (restore func()) {
	testHookSortRun = f
	return func() { testHookSortRun = nil }
}
