package experiments

import (
	"math"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// scaling sweeps ring population N over Config.ScaleSweep on one fixed
// AS1221-like router fabric and reports how routing state, stretch, and
// pointer-cache effectiveness move with N — the question the
// compact-routing literature (PAPERS.md: Krioukov et al.) says decides
// whether a flat-label design survives Internet scale. The paper stops
// at a few thousand hosts (Fig 5/6); this driver runs the same ring at
// up to a million hosts on one machine, using the compact sharded
// simulation (vring.CompactRing over sim.ShardedEngine).
//
// Shard count is a fixed config knob, never derived from Workers or
// core count: sharded runs are byte-identical at any shard count, and
// tables must be byte-identical at any Workers value, so neither may
// leak into the output. Probes run serially after convergence.
func scaling(cfg Config) Table {
	sweep := cfg.ScaleSweep
	if len(sweep) == 0 {
		sweep = []int{10000, 100000, 1000000}
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 4
	}
	tab := Table{
		ID:    "scaling",
		Title: "Routing state, stretch, and cache hits vs N (compact sharded ring)",
		Columns: []string{
			"hosts", "shards", "converge_vms", "ctl_msgs/host",
			"ring_B/host", "total_B/host", "stretch_p50", "stretch_p99",
			"cache_hit", "join_msgs_p50",
		},
	}
	isp := topology.GenISP(topology.AS1221)

	type point struct {
		ringPerHost, p50, p99 float64
	}
	var pts []point
	for i, n := range sweep {
		rcfg := vring.DefaultCompactConfig()
		rcfg.Hosts = n
		rcfg.EphemeralEvery = 100
		rcfg.Shards = shards
		rcfg.Seed = sim.TrialSeed(cfg.Seed, i)
		r := vring.NewCompactRing(isp, rcfg)
		end := r.Run()
		exact, err := r.Check()
		verdict := "pointers trace sorted order"
		if err != nil {
			verdict = "ring fault: " + err.Error()
		}
		tab.Note("N=%d ring checked: %s; exact successor groups %d of %d (%.5f)",
			n, verdict, exact, r.Members(), float64(exact)/float64(r.Members()))

		// Serial measurement phase: data probes between seeded member
		// pairs, then join probes for fresh identifiers.
		pairs := cfg.Pairs
		if pairs <= 0 {
			pairs = 200
		}
		state := uint64(rcfg.Seed) ^ 0x5ca1ab1e
		for p := 0; p < pairs; p++ {
			from := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
			to := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
			if _, err := r.Probe(from, r.IDOf(to)); err != nil {
				tab.Note("probe error at N=%d: %v", n, err)
			}
		}
		joins := max(pairs/4, 1)
		joinMsgs := make([]float64, 0, joins)
		for p := 0; p < joins; p++ {
			from := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
			msgs, err := r.ProbeJoin(from, ident.FromUint64(sim.SplitMix64(&state)))
			if err != nil {
				tab.Note("join probe error at N=%d: %v", n, err)
				continue
			}
			joinMsgs = append(joinMsgs, float64(msgs))
		}

		f := r.Footprint()
		pm := r.ProbeMetrics()
		stretch := sim.Summarize(pm.Samples(vring.SampleCompactStretch))
		join := sim.Summarize(joinMsgs)
		hit := pm.Counter(vring.CtrCompactCacheHit)
		miss := pm.Counter(vring.CtrCompactCacheMiss)
		hitRate := 0.0
		if hit+miss > 0 {
			hitRate = float64(hit) / float64(hit+miss)
		}
		ringPerHost := f.RingBytesPerHost(r.Members())
		tab.AddRow(
			n, shards, float64(end),
			float64(r.Metrics().Counter(vring.MsgCompactControl))/float64(n),
			ringPerHost, float64(f.Total())/float64(f.Hosts),
			stretch.P50, stretch.P99, hitRate, join.P50,
		)
		pts = append(pts, point{ringPerHost, stretch.P50, stretch.P99})
	}

	if len(pts) >= 2 {
		first, last := pts[0], pts[len(pts)-1]
		nRatio := float64(sweep[len(sweep)-1]) / float64(sweep[0])
		tab.Note("ring state %.1f -> %.1f B/host over a %.0fx host sweep: O(1) per-host state, vs the O(sqrt n) lower bound (~%.0f entries at N=%d) compact routing pays for stretch<3",
			first.ringPerHost, last.ringPerHost, nRatio,
			math.Sqrt(float64(sweep[len(sweep)-1])), sweep[len(sweep)-1])
		tab.Note("stretch p50 %.2f -> %.2f and p99 %.2f -> %.2f across the sweep; ROFL buys O(1) state with unbounded worst-case stretch, the Fig 6a trade at scale",
			first.p50, last.p50, first.p99, last.p99)
	}
	return tab
}
