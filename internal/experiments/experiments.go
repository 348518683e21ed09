// Package experiments regenerates every table and figure of the paper's
// evaluation section (§6) from the simulators in this repository. Each
// driver is a pure function of its Config (topology scale, workload
// sizes, seed) returning a Table whose rows mirror the series the paper
// plots; cmd/roflsim prints them and bench_test.go wraps each one in a
// testing.B benchmark.
//
// Absolute values are not expected to match the paper — its substrate
// was Rocketfuel/Routeviews traces at up to 600M extrapolated hosts,
// ours is the generator of package topology at laptop scale — but the
// qualitative shape is asserted by tests: who wins, by what rough
// factor, and where the knees fall.
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"rofl/internal/sim"
)

// Config scales every driver. The zero value is unusable; start from
// DefaultConfig (full evaluation) or QuickConfig (CI-sized).
type Config struct {
	// HostsPerISP caps the intradomain workload per ISP.
	HostsPerISP int
	// Pairs is the number of random source/destination probes per
	// data-plane measurement.
	Pairs int
	// InterHosts is the interdomain workload size.
	InterHosts int
	// Seed feeds all deterministic RNGs. Multi-trial drivers derive one
	// seed per independent trial from it (sim.TrialSeed), so every table
	// is a pure function of the config regardless of Workers.
	Seed int64
	// Workers bounds how many goroutines a driver fans its independent
	// trials (per-topology runs, parameter-sweep points, baseline arms)
	// across. 0 means runtime.NumCPU(); 1 runs every trial serially on
	// the calling goroutine, reproducing single-threaded execution bit
	// for bit. Results are identical at any value — only wall-clock time
	// changes.
	Workers int
	// ScaleSweep is the host-count sweep of the scaling experiment;
	// empty means {10k, 100k, 1M}.
	ScaleSweep []int
	// Shards is the shard count of the scaling experiment's sharded
	// single-network runs. 0 means 4. Like Workers, it changes only
	// wall-clock time: sharded runs are byte-identical at any value, and
	// it is deliberately never derived from the core count so tables
	// stay machine-independent.
	Shards int
}

// WorkerCount resolves the Workers knob: 0 defaults to runtime.NumCPU().
func (c Config) WorkerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// forTrials fans n independent trials across the configured worker pool.
// Each trial must derive its randomness from sim.TrialSeed(cfg.Seed, i)
// (or the trial index of its comparison group, when arms share a
// workload) and write results into its own index-addressed slot.
func forTrials(cfg Config, n int, fn func(trial int)) {
	sim.ForEach(cfg.WorkerCount(), n, fn)
}

// DefaultConfig sizes the full evaluation (~minutes).
func DefaultConfig() Config {
	return Config{
		HostsPerISP: 1200, Pairs: 1500, InterHosts: 2500, Seed: 2006,
		ScaleSweep: []int{10000, 100000, 1000000},
	}
}

// QuickConfig sizes a smoke-test run (~seconds).
func QuickConfig() Config {
	return Config{
		HostsPerISP: 150, Pairs: 200, InterHosts: 300, Seed: 2006,
		ScaleSweep: []int{1000, 5000},
	}
}

// Table is one reproduced figure or table: a title, column headers, and
// formatted rows.
type Table struct {
	ID      string // e.g. "fig5a"
	Title   string
	Columns []string
	Rows    [][]string
	// Notes records observations the paper calls out in prose (ratios,
	// crossover points) computed from this run.
	Notes []string
}

// AddRow appends a row formatted with %v semantics.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends an observation line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner is a named experiment driver.
type Runner struct {
	ID    string
	Title string
	Run   func(Config) Table
}

// All lists every reproduced figure in paper order plus the ablations.
func All() []Runner {
	return []Runner{
		{"fig5a", "Intradomain cumulative join overhead vs IDs (+CMU-ETHERNET)", fig5a},
		{"fig5b", "Intradomain per-join overhead CDF", fig5b},
		{"fig5c", "Intradomain join latency CDF", fig5c},
		{"fig6a", "Intradomain stretch vs pointer-cache size", fig6a},
		{"fig6b", "Intradomain load balance vs OSPF", fig6b},
		{"fig6c", "Intradomain per-router memory vs IDs (+CMU-ETHERNET)", fig6c},
		{"fig7", "Partition repair overhead vs IDs per PoP", fig7},
		{"fig8a", "Interdomain join overhead by strategy", fig8a},
		{"fig8b", "Interdomain stretch by finger budget (+BGP baseline)", fig8b},
		{"fig8c", "Interdomain stretch vs per-AS pointer cache", fig8c},
		{"stubfail", "Stub-AS failure impact and repair (§6.3)", stubFail},
		{"bloompeering", "Bloom-filter peering vs virtual-AS peering (§6.4)", bloomPeering},
		{"extensions", "§5 extensions: anycast, multicast, path negotiation", extensions},
		{"churn", "Per-event control cost under sustained churn (§6.2)", churn},
		{"msgsizes", "Join-message sizes vs finger count (§6.3)", msgSizes},
		{"composite", "Two-level system end to end (Alg. 1 + §4)", compositeFig},
		{"ablation", "Design-choice ablations (successor groups, caching, fingers)", ablations},
		{"scaling", "Routing state, stretch, and cache hits vs N (compact sharded ring)", scaling},
	}
}

// ByID finds a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
