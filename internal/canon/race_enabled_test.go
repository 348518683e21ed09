//go:build race

package canon

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation moves some non-escaping maps to the heap, so malloc
// budgets do not hold under it.
const raceEnabled = true
