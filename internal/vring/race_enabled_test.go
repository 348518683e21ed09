//go:build race

package vring

// raceEnabled reports whether the race detector is compiled in. It
// multiplies the cost of a 100k-host build several times over and
// inflates allocation counts, so allocation budgets at that scale skip.
const raceEnabled = true
