package experiments

import (
	"fmt"
	"math/rand"

	"rofl/internal/baseline/bgppolicy"
	"rofl/internal/canon"
	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// genASGraph builds the interdomain topology scaled to the config.
func genASGraph(cfg Config) *topology.ASGraph {
	gen := topology.DefaultASGen()
	gen.Hosts = cfg.InterHosts
	gen.Seed = cfg.Seed
	return topology.GenAS(gen)
}

// hostASes returns the host-populated ASes, repeated in proportion to
// their host counts, as a sampling pool.
func hostASes(g *topology.ASGraph) []topology.ASN {
	var pool []topology.ASN
	for a := 0; a < g.NumASes(); a++ {
		asn := topology.ASN(a)
		// Sample with weight ~ sqrt(hosts) so the head does not dominate
		// every draw while the skew stays visible.
		w := 0
		for h := g.Hosts(asn); (w+1)*(w+1) <= h; w++ {
		}
		for k := 0; k < w; k++ {
			pool = append(pool, asn)
		}
	}
	return pool
}

// joinInter joins count identifiers with the given strategy, spread over
// the host-populated ASes.
func joinInter(in *canon.Internet, g *topology.ASGraph, count int, s canon.Strategy, seed int64, tag string) ([]ident.ID, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := hostASes(g)
	ids := make([]ident.ID, 0, count)
	for i := 0; i < count; i++ {
		id := ident.FromString(fmt.Sprintf("%s-%d", tag, i))
		at := pool[rng.Intn(len(pool))]
		if _, err := in.Join(id, at, s); err != nil {
			return nil, fmt.Errorf("join %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// fig8a reproduces the join-strategy comparison: moving-average join
// overhead as identifiers accumulate, for ephemeral, single-homed,
// recursively multihomed and peering joins. Paper shape: ephemeral ≪
// single-homed ≈ multihomed < peering, with the multihomed join "not
// significantly larger than single-homed" thanks to redundant-lookup
// elimination.
func fig8a(cfg Config) Table {
	t := Table{
		ID:      "fig8a",
		Title:   "Interdomain join overhead [messages] by strategy (moving average)",
		Columns: []string{"ids", "ephemeral", "single-homed", "rec-multihomed", "peering"},
	}
	points := sweepPoints(cfg.InterHosts / 4)
	strategies := []canon.Strategy{canon.Ephemeral, canon.SingleHomed, canon.Multihomed, canon.Peering}
	// One trial per strategy. All four arms share trial group 0's
	// derived seed so every strategy races over the identical workload
	// (same AS placement sequence), keeping the comparison paired.
	series := make([][]float64, len(strategies))
	forTrials(cfg, len(strategies), func(trial int) {
		s := strategies[trial]
		g := genASGraph(cfg)
		in := canon.New(g, sim.NewMetrics(), canon.DefaultOptions())
		rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 0)))
		pool := hostASes(g)
		var window []float64
		joined := 0
		for _, p := range points {
			for joined < p {
				id := ident.FromString(fmt.Sprintf("f8a-%v-%d", s, joined))
				res, err := in.Join(id, pool[rng.Intn(len(pool))], s)
				if err != nil {
					panic(err)
				}
				window = append(window, float64(res.Msgs))
				if len(window) > 200 {
					window = window[1:]
				}
				joined++
			}
			var sum float64
			for _, v := range window {
				sum += v
			}
			series[trial] = append(series[trial], sum/float64(len(window)))
		}
		if err := in.CheckRings(); err != nil {
			panic(err)
		}
	})
	for i, p := range points {
		t.AddRow(p, series[0][i], series[1][i], series[2][i], series[3][i])
	}
	last := len(points) - 1
	t.Note("final averages: eph %.0f / single %.0f / multi %.0f / peering %.0f (paper extrapolation: ~14 / ~80 / ~100 / ~300+)",
		series[0][last], series[1][last], series[2][last], series[3][last])
	return t
}

// shortestASHops is the policy-free hop count — the denominator of the
// paper's BGP-policy stretch curve.
func shortestASHops(g *topology.ASGraph, src, dst topology.ASN) int {
	if src == dst {
		return 0
	}
	dist := map[topology.ASN]int{src: 0}
	queue := []topology.ASN{src}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, b := range g.Neighbors(a) {
			if _, ok := dist[b]; ok {
				continue
			}
			dist[b] = dist[a] + 1
			if b == dst {
				return dist[b]
			}
			queue = append(queue, b)
		}
	}
	return -1
}

// fig8b reproduces the interdomain stretch comparison: ROFL stretch
// (vs the BGP path, the paper's definition) for several proximity-finger
// budgets, plus the stretch BGP policies themselves impose relative to
// policy-free shortest paths. Paper shape: stretch ~2.8 with 60 fingers
// falling to ~2.3 with 160+.
func fig8b(cfg Config) Table {
	t := Table{
		ID:      "fig8b",
		Title:   "Interdomain stretch CDF (ROFL vs BGP path; BGP-policy vs shortest)",
		Columns: []string{"percentile", "rofl-0f", "rofl-60f", "rofl-160f", "rofl-280f", "bgp-policy"},
	}
	budgets := []int{0, 60, 160, 280}
	order := []string{"rofl-0f", "rofl-60f", "rofl-160f", "rofl-280f", "bgp-policy"}
	// One trial per finger budget, all arms on trial group 0's workload.
	// Each trial samples its stretch series into a private Metrics sink
	// under its own series name; the sinks merge in budget order below.
	sinks := make([]sim.Metrics, len(budgets))
	means := make([]float64, len(budgets))
	forTrials(cfg, len(budgets), func(bi int) {
		budget := budgets[bi]
		g := genASGraph(cfg)
		opts := canon.DefaultOptions()
		opts.FingerBudget = budget
		in := canon.New(g, sim.NewMetrics(), opts)
		ids, err := joinInter(in, g, cfg.InterHosts/4, canon.Multihomed, sim.TrialSeed(cfg.Seed, 0), fmt.Sprintf("f8b-%d", budget))
		if err != nil {
			panic(err)
		}
		bgp := bgppolicy.New(g)
		rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 0) + 1))
		sink := sim.NewMetrics()
		name := order[bi]
		var total float64
		var count int
		for p := 0; p < cfg.Pairs; p++ {
			src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if src == dst {
				continue
			}
			res, err := in.Route(src, dst)
			if err != nil {
				continue
			}
			srcAS, _ := in.HostingAS(src)
			dstAS, _ := in.HostingAS(dst)
			base := bgp.Hops(srcAS, dstAS, nil)
			if base <= 0 {
				continue
			}
			s := float64(res.ASHops) / float64(base)
			sink.Sample(name, s)
			total += s
			count++
			if bi == 0 {
				// BGP-policy curve measured once.
				free := shortestASHops(g, srcAS, dstAS)
				if free > 0 {
					sink.Sample("bgp-policy", float64(base)/float64(free))
				}
			}
		}
		means[bi] = total / float64(count)
		sinks[bi] = sink
	})
	merged := sim.NewMetrics()
	for _, s := range sinks {
		merged.Merge(s)
	}
	samples := make(map[string][]float64)
	for _, name := range order {
		samples[name] = merged.Samples(name)
	}
	cdfRows(&t, samples, order)
	t.Note("mean ROFL stretch: %.2f (0 fingers) → %.2f (60) → %.2f (160) → %.2f (280); paper: 2.8 @60 → 2.3 @160",
		means[0], means[1], means[2], means[3])
	return t
}

// fig8c reproduces "Effect of pointer caching": mean interdomain stretch
// as per-AS pointer caches grow, with caches warmed by a first traffic
// pass. Paper: 20M entries/AS pull stretch from 2 to 1.33.
func fig8c(cfg Config) Table {
	t := Table{
		ID:      "fig8c",
		Title:   "Interdomain stretch vs per-AS pointer-cache size [entries]",
		Columns: []string{"cache-entries", "mean-stretch", "p90-stretch", "total-cached"},
	}
	sizes := []int{0, 200, 1000, 5000}
	// One trial per cache size, all arms on trial group 0's workload.
	type f8cRow struct {
		mean, p90 float64
		cached    int
	}
	results := make([]f8cRow, len(sizes))
	forTrials(cfg, len(sizes), func(trial int) {
		sz := sizes[trial]
		g := genASGraph(cfg)
		opts := canon.DefaultOptions()
		opts.CacheCapacity = sz
		opts.FingerBudget = 60
		in := canon.New(g, sim.NewMetrics(), opts)
		ids, err := joinInter(in, g, cfg.InterHosts/4, canon.Multihomed, sim.TrialSeed(cfg.Seed, 0), fmt.Sprintf("f8c-%d", sz))
		if err != nil {
			panic(err)
		}
		bgp := bgppolicy.New(g)
		var vals []float64
		// Two passes over the same pair sequence: the second hits warm
		// caches (the paper's caches hold "frequently accessed routes").
		for pass := 0; pass < 2; pass++ {
			rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 0) + 2))
			vals = vals[:0]
			for p := 0; p < cfg.Pairs; p++ {
				src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				if src == dst {
					continue
				}
				res, err := in.Route(src, dst)
				if err != nil {
					continue
				}
				srcAS, _ := in.HostingAS(src)
				dstAS, _ := in.HostingAS(dst)
				base := bgp.Hops(srcAS, dstAS, nil)
				if base <= 0 {
					continue
				}
				vals = append(vals, float64(res.ASHops)/float64(base))
			}
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		cached := 0
		for a := 0; a < g.NumASes() && sz > 0; a++ { // no cache at size 0
			cached += in.AS(topology.ASN(a)).Cache.Len()
		}
		results[trial] = f8cRow{mean: sum / float64(len(vals)), p90: quantileOf(vals, 0.9), cached: cached}
	})
	for i, sz := range sizes {
		t.AddRow(sz, results[i].mean, results[i].p90, results[i].cached)
	}
	first, last := results[0].mean, results[len(sizes)-1].mean
	t.Note("caching pulls mean stretch %.2f → %.2f (paper: 2 → 1.33 with 20M entries/AS)", first, last)
	return t
}

// stubFail reproduces the §6.3 failure experiment: fail random stub
// ASes; measure the fraction of paths affected (paper: 99.998%%
// unaffected) and the repair cost (paper: ≈ the number of identifiers
// the stub hosted).
//
// The five failure trials accumulate on one shared Internet (each
// trial's population is what the previous failures left alive), so this
// driver is inherently sequential and runs as a single trial at any
// Workers setting.
func stubFail(cfg Config) Table {
	t := Table{
		ID:      "stubfail",
		Title:   "Stub-AS failure: affected paths and repair cost",
		Columns: []string{"trial", "ids-hosted", "repair-msgs", "affected-frac"},
	}
	g := genASGraph(cfg)
	in := canon.New(g, sim.NewMetrics(), canon.DefaultOptions())
	ids, err := joinInter(in, g, cfg.InterHosts/4, canon.Multihomed, cfg.Seed, "sf")
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	stubs := g.Stubs()
	var totalAffected, totalPairs float64
	for trial := 0; trial < 5; trial++ {
		// At Internet scale every stub hosts a negligible share of all
		// identifiers; at our reduced scale the Zipf head can hold tens
		// of percent, so mirror the paper's regime by sampling stubs
		// below a 5%% population share.
		var victim topology.ASN = -1
		for tries := 0; tries < 400; tries++ {
			c := stubs[rng.Intn(len(stubs))]
			hosted := len(in.AS(c).VNs)
			if hosted > 0 && hosted*20 <= in.NumJoined() {
				victim = c
				break
			}
		}
		if victim == -1 {
			continue
		}
		// Snapshot the identifiers alive before this trial's failure, so
		// each trial measures its own failure's blast radius (the paper's
		// per-failure metric), not the accumulation of earlier trials.
		alive := ids[:0:0]
		for _, id := range ids {
			if _, ok := in.HostingAS(id); ok {
				alive = append(alive, id)
			}
		}
		before := in.Metrics.Counter(canon.MsgRepair)
		dead := in.FailAS(victim)
		repair := in.Metrics.Counter(canon.MsgRepair) - before
		if err := in.CheckRings(); err != nil {
			panic(fmt.Sprintf("stubfail check: %v", err))
		}
		// Affected fraction over sampled pairs: a pair is affected iff an
		// endpoint died with the stub or can no longer be routed to.
		affected, pairs := 0, 0
		for p := 0; p < cfg.Pairs; p++ {
			src, dst := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
			if src == dst {
				continue
			}
			pairs++
			_, okS := in.HostingAS(src)
			_, okD := in.HostingAS(dst)
			if !okS || !okD {
				affected++
				continue
			}
			if _, err := in.Route(src, dst); err != nil {
				affected++
			}
		}
		frac := float64(affected) / float64(pairs)
		totalAffected += float64(affected)
		totalPairs += float64(pairs)
		t.AddRow(trial+1, dead, repair, fmt.Sprintf("%.4f", frac))
	}
	t.Note("%.2f%% of sampled paths unaffected (paper: 99.998%% at Internet scale); repair scales with identifiers hosted",
		100*(1-totalAffected/totalPairs))
	return t
}

// bloomPeering reproduces the §6.4 comparison of the two peering
// mechanisms: virtual-AS joins (option 1) vs Bloom filters with
// backtracking (option 2) — join overhead, filter state, stretch, and
// backtrack rate.
func bloomPeering(cfg Config) Table {
	t := Table{
		ID:      "bloompeering",
		Title:   "Peering via virtual ASes vs Bloom filters",
		Columns: []string{"mechanism", "avg-join-msgs", "bloom-bits/AS", "mean-stretch", "backtracks/1k-routes"},
	}
	// One trial per peering mechanism, both on the same derived workload.
	type bpRow struct {
		name       string
		joinAvg    float64
		bloomBits  int64
		stretch    float64
		backtracks float64
	}
	results := make([]bpRow, 2)
	forTrials(cfg, 2, func(trial int) {
		bloom := trial == 1
		g := genASGraph(cfg)
		opts := canon.DefaultOptions()
		opts.BloomPeering = bloom
		opts.FingerBudget = 60
		in := canon.New(g, sim.NewMetrics(), opts)
		ids, err := joinInter(in, g, cfg.InterHosts/4, canon.Peering, sim.TrialSeed(cfg.Seed, 0), fmt.Sprintf("bp-%v", bloom))
		if err != nil {
			panic(err)
		}
		joinAvg := 0.0
		for _, v := range in.Metrics.Samples(canon.SampleJoinMsgs) {
			joinAvg += v
		}
		joinAvg /= float64(len(in.Metrics.Samples(canon.SampleJoinMsgs)))

		bgp := bgppolicy.New(g)
		rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 0) + 4))
		var stretchSum float64
		var count int
		for p := 0; p < cfg.Pairs; p++ {
			src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if src == dst {
				continue
			}
			res, err := in.Route(src, dst)
			if err != nil {
				continue
			}
			srcAS, _ := in.HostingAS(src)
			dstAS, _ := in.HostingAS(dst)
			base := bgp.Hops(srcAS, dstAS, nil)
			if base <= 0 {
				continue
			}
			stretchSum += float64(res.ASHops) / float64(base)
			count++
		}
		bloomBits := int64(0)
		if bloom {
			for a := 0; a < g.NumASes(); a++ {
				if f := in.AS(topology.ASN(a)).Bloom; f != nil {
					bloomBits += int64(f.SizeBits())
				}
			}
			bloomBits /= int64(g.NumASes())
		}
		name := "virtual-AS"
		if bloom {
			name = "bloom-filter"
		}
		results[trial] = bpRow{
			name:       name,
			joinAvg:    joinAvg,
			bloomBits:  bloomBits,
			stretch:    stretchSum / float64(count),
			backtracks: float64(in.Metrics.Counter(canon.CtrBloomBacktracks)) / float64(count) * 1000,
		}
	})
	for _, r := range results {
		t.AddRow(r.name, r.joinAvg, r.bloomBits, r.stretch, fmt.Sprintf("%.1f", r.backtracks))
	}
	t.Note("blooms cut peering join cost to ~multihomed level at the price of per-AS filter state and occasional backtracks (paper §6.4)")
	return t
}
