//go:build !race

package vring

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
