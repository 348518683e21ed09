//go:build !race

package canon

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
