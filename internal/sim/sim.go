// Package sim provides the deterministic substrate the ROFL evaluation
// runs on: virtual time, the one discrete-event engine (ShardedEngine),
// and the message accounting the paper's figures are built from.
//
// The paper measures join overhead and convergence cost in
// "network-level messages" — one control message traversing k physical
// links counts as k packets (§6.1) — and join latency as the critical
// path of parallel control messages over weighted links (§6.2, Fig 5c).
// Metrics holds exactly those quantities, so every experiment driver is
// a pure function of (topology, workload, seed).
//
// Two parallel execution modes keep that purity:
//
//   - ForEach + Metrics.Merge run independent trials (one seed each)
//     across a worker pool; tables are byte-identical at any worker
//     count because trial seeds derive from the trial index.
//   - ShardedEngine (shard.go) parallelizes a single network: nodes are
//     sharded across workers that exchange messages at virtual-clock
//     barriers every Lookahead window, and runs are byte-identical at
//     any shard count. See ExampleShardedEngine and SCALING.md.
package sim

import (
	"fmt"
	"sort"
)

// Time is virtual time in milliseconds. Link weights are interpreted as
// one-way latencies in the same unit.
type Time float64

// --- Metrics -------------------------------------------------------------

// Metrics accumulates the quantities the paper's figures report:
// per-category message counts (join, teardown, repair, data, ...) and
// arbitrary sample sets for CDFs (per-join overhead, latency, stretch).
type Metrics struct {
	counters map[string]int64
	samples  map[string][]float64
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() Metrics {
	return Metrics{
		counters: make(map[string]int64),
		samples:  make(map[string][]float64),
	}
}

// Count adds n to the named counter.
func (m Metrics) Count(name string, n int64) { m.counters[name] += n }

// Counter returns the value of the named counter (zero if never touched).
func (m Metrics) Counter(name string) int64 { return m.counters[name] }

// Sample appends one observation to the named sample set.
func (m Metrics) Sample(name string, v float64) {
	m.samples[name] = append(m.samples[name], v)
}

// Samples returns the raw observations for name. The returned slice is
// the live backing store; callers must not mutate it.
func (m Metrics) Samples(name string) []float64 { return m.samples[name] }

// Reset clears all counters and samples.
func (m Metrics) Reset() {
	for k := range m.counters {
		delete(m.counters, k)
	}
	for k := range m.samples {
		delete(m.samples, k)
	}
}

// CounterNames returns the names of all touched counters, sorted.
func (m Metrics) CounterNames() []string {
	names := make([]string, 0, len(m.counters))
	for k := range m.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// SampleNames returns the names of all touched sample sets, sorted.
func (m Metrics) SampleNames() []string {
	names := make([]string, 0, len(m.samples))
	for k := range m.samples {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Merge folds other into m: counters add, sample sets concatenate in
// other's recording order. Keys are visited in sorted order, so merging
// the same set of sinks in the same sequence always produces identical
// internal state — the contract the parallel experiment harness relies
// on when it folds per-worker sinks together in trial-index order.
// Counter totals and sample multisets are independent of the merge
// order; only the position of samples within a set depends on it, and
// every consumer (Summarize, Quantile) sorts first. other is not
// modified.
func (m Metrics) Merge(other Metrics) {
	for _, k := range other.CounterNames() {
		m.counters[k] += other.counters[k]
	}
	for _, k := range other.SampleNames() {
		m.samples[k] = append(m.samples[k], other.samples[k]...)
	}
}

// --- Statistics helpers ---------------------------------------------------

// Summary holds order statistics of a sample set.
type Summary struct {
	N              int
	Min, Max, Mean float64
	P50, P90, P99  float64
}

// Summarize computes order statistics over vs. An empty input yields a
// zero Summary.
func Summarize(vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Summary{
		N:    len(s),
		Min:  s[0],
		Max:  s[len(s)-1],
		Mean: sum / float64(len(s)),
		P50:  Quantile(s, 0.50),
		P90:  Quantile(s, 0.90),
		P99:  Quantile(s, 0.99),
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// slice, linearly interpolating between the two closest ranks (the R-7
// estimator most plotting libraries default to): position q*(n-1) is
// split into an integer rank and a fraction, and the result blends the
// neighbouring order statistics by that fraction. Exact for the
// endpoints and for positions that land on a rank.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// String renders a summary compactly for logs and experiment tables.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.2f p50=%.2f mean=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.N, s.Min, s.P50, s.Mean, s.P90, s.P99, s.Max)
}
