package vring

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

func compactTestISP() *topology.ISP {
	cfg := topology.AS1221
	cfg.Routers, cfg.PoPs, cfg.BackbonePerPoP, cfg.PoPDegree = 40, 4, 2, 3
	return topology.GenISP(cfg)
}

func smallCompactConfig() CompactConfig {
	cfg := DefaultCompactConfig()
	cfg.Hosts = 400
	cfg.EphemeralEvery = 20
	cfg.CacheCapacity = 512
	cfg.Seed = 7
	return cfg
}

// compactState renders the complete post-run routing state of every
// member in handle order — successor groups, predecessor — and then
// every router's pointer cache, for byte-comparison across shard counts.
func compactState(r *CompactRing) string {
	var b strings.Builder
	for h := 0; h < r.Members(); h++ {
		fmt.Fprintf(&b, "%d:", h)
		for k := 0; k < r.NumSucc(ident.Handle(h)); k++ {
			fmt.Fprintf(&b, " s%d", r.Succ(ident.Handle(h), k))
		}
		fmt.Fprintf(&b, " p%d\n", r.Pred(ident.Handle(h)))
	}
	for rt := range r.caches {
		b.WriteString(cacheText(r, rt))
	}
	return b.String()
}

// cacheText renders one router's cache exactly: clock and size, then
// each bucket's capacity and (handle, stamp) slots in slot order.
func cacheText(r *CompactRing, router int) string {
	c := &r.caches[router]
	var b strings.Builder
	fmt.Fprintf(&b, "cache %d clock=%d size=%d\n", router, c.clock, c.size)
	for i, bkt := range c.buckets {
		if cap(bkt) == 0 {
			continue
		}
		fmt.Fprintf(&b, " b%d cap=%d", i, cap(bkt))
		for _, s := range bkt {
			fmt.Fprintf(&b, " %d@%d", s.h, s.stamp)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// refCacheInsert is the insert rule cacheInsert and sortCache must
// reproduce: every bucket kept in ID order at every insert, a refresh
// restamping its slot in place, an eviction removing the oldest stamp
// wherever it sits.
func (r *CompactRing) refCacheInsert(router uint32, h ident.Handle) {
	c := &r.caches[router]
	if c.buckets == nil {
		return
	}
	id := r.ids[h]
	b := r.bucketOf(c, id)
	bkt := c.buckets[b]
	i := ident.Search(len(bkt), func(k int) *ident.ID { return &r.ids[bkt[k].h] }, id)
	c.clock++
	if i < len(bkt) && bkt[i].h == h {
		bkt[i].stamp = c.clock
		return
	}
	if len(bkt) >= c.bucketCap {
		// Evict the oldest stamp in this bucket.
		victim := 0
		for k := 1; k < len(bkt); k++ {
			if bkt[k].stamp < bkt[victim].stamp {
				victim = k
			}
		}
		copy(bkt[victim:], bkt[victim+1:])
		bkt = bkt[:len(bkt)-1]
		c.size--
		if victim < i {
			i--
		}
	}
	bkt = append(bkt, cacheSlot{})
	copy(bkt[i+1:], bkt[i:])
	bkt[i] = cacheSlot{h: h, stamp: c.clock}
	c.buckets[b] = bkt
	c.size++
}

// refWarmCaches is the serial warm-up the blocked, sharded warmCaches
// must reproduce: the event run's deposits, router by router, then
// every member's stabilize round-trip deposits in handle order, then
// every member's join-epoch residue, each inserted through
// refCacheInsert the moment it is generated.
func refWarmCaches(r *CompactRing) {
	for rt, list := range r.deposits {
		for _, h := range list {
			r.refCacheInsert(uint32(rt), h)
		}
	}
	r.deposits = nil
	depositAlong := func(a, b uint32, h ident.Handle) {
		if a == b {
			return
		}
		for _, node := range r.ls.Path(topology.NodeID(a), topology.NodeID(b))[1:] {
			r.refCacheInsert(uint32(node), h)
		}
	}
	for u := 0; u < r.members; u++ {
		if r.nsucc[u] == 0 {
			continue
		}
		s0 := r.succs[u*r.cfg.SuccessorGroup]
		depositAlong(r.router[u], r.router[s0], ident.Handle(u))
		depositAlong(r.router[s0], r.router[u], s0)
	}
	for u := 0; u < r.members; u++ {
		st := uint64(r.cfg.Seed)<<20 ^ uint64(u)*0x9e3779b97f4a7c15
		for t := 0; t < joinResidueDeposits; t++ {
			r.refCacheInsert(uint32(sim.SplitMix64(&st)%uint64(r.nrouters)), ident.Handle(u))
		}
	}
}

// TestCacheInsertMatchesReference: stamp-ordered inserts followed by
// sortCache leave a cache exactly as refCacheInsert does — slots,
// stamps, bucket capacities, clock and size — for seeded handle
// sequences with repeats, on a cache that never fills and on caches
// that evict.
func TestCacheInsertMatchesReference(t *testing.T) {
	isp := compactTestISP()
	cfg := smallCompactConfig()
	cfg.Hosts, cfg.EphemeralEvery = 2000, 0
	for _, tc := range []struct {
		capacity, pool int
		evicts         bool
	}{
		{8192, 300, false},
		{512, 2000, true},
		{64, 2000, true},
		{16, 40, true}, // one bucket
	} {
		cfg.CacheCapacity = tc.capacity
		for seed := uint64(1); seed <= 3; seed++ {
			got, ref := NewCompactRing(isp, cfg), NewCompactRing(isp, cfg)
			distinct := map[ident.Handle]bool{}
			st := seed
			for i := 0; i < 20*tc.pool; i++ {
				h := ident.Handle(sim.SplitMix64(&st) % uint64(tc.pool))
				distinct[h] = true
				got.cacheInsert(0, h)
				ref.refCacheInsert(0, h)
			}
			got.sortCache(0)
			if evicted := ref.caches[0].size < len(distinct); evicted != tc.evicts {
				t.Fatalf("capacity=%d pool=%d: evicted=%v, want %v", tc.capacity, tc.pool, evicted, tc.evicts)
			}
			if x, y := cacheText(got, 0), cacheText(ref, 0); x != y {
				t.Fatalf("capacity=%d pool=%d seed=%d: cache differs from the reference\ngot:\n%.600s\nwant:\n%.600s",
					tc.capacity, tc.pool, seed, x, y)
			}
		}
	}
}

// TestCompactStateDigest pins the complete post-Run state — every
// successor group, predecessor, cache slot, stamp, bucket capacity,
// clock and size — to the digests of the state built when every
// deposit went straight through refCacheInsert's rule, at 1 and 8
// shards, on a ring whose caches never fill and on one that evicts.
func TestCompactStateDigest(t *testing.T) {
	isp := compactTestISP()
	evicting := smallCompactConfig()
	evicting.Hosts, evicting.CacheCapacity, evicting.EphemeralEvery = 2000, 64, 20
	for _, tc := range []struct {
		cfg  CompactConfig
		want string
	}{
		{smallCompactConfig(), "6b5230be0acea616acb490208a83081272ad8ab9a447805ce38a34696ce79865"},
		{evicting, "0b7ae66ad206ab3f88b3d7d1198d312296d89b15e626bc813c98832007942b1c"},
	} {
		for _, shards := range []int{1, 8} {
			cfg := tc.cfg
			cfg.Shards = shards
			r := NewCompactRing(isp, cfg)
			r.Run()
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(compactState(r)))); got != tc.want {
				t.Errorf("hosts=%d capacity=%d shards=%d: state digest %s, want %s",
					cfg.Hosts, cfg.CacheCapacity, shards, got, tc.want)
			}
		}
	}
}

// converged builds a ring and runs only its sharded engine, leaving the
// caches as the run's endpoint deposits left them, before any warm-up.
func converged(isp *topology.ISP, cfg CompactConfig) *CompactRing {
	r := NewCompactRing(isp, cfg)
	r.eng.Run()
	return r
}

// diffCaches returns the first router whose cache differs between a
// and b, rendered both ways, or "" when every cache is identical.
func diffCaches(a, b *CompactRing) string {
	for rt := range a.caches {
		if x, y := cacheText(a, rt), cacheText(b, rt); x != y {
			return fmt.Sprintf("got:\n%.600s\nwant:\n%.600s", x, y)
		}
	}
	return ""
}

// TestWarmCachesMatchesSerialReference: the blocked, sharded warm-up
// leaves every router's cache — slots, stamps, bucket capacities, clock
// and size — exactly as the serial reference does, at every shard count,
// on a ring whose caches never fill and on one that evicts.
func TestWarmCachesMatchesSerialReference(t *testing.T) {
	isp := compactTestISP()
	evicting := smallCompactConfig()
	evicting.Hosts, evicting.CacheCapacity, evicting.EphemeralEvery = 2000, 64, 20
	for _, base := range []CompactConfig{smallCompactConfig(), evicting} {
		for _, seed := range []int64{7, 11} {
			cfg := base
			cfg.Seed = seed
			ref := converged(isp, cfg)
			refWarmCaches(ref)
			for _, shards := range []int{1, 2, 3, 8} {
				cfg.Shards = shards
				r := converged(isp, cfg)
				r.warmCaches()
				if d := diffCaches(r, ref); d != "" {
					t.Fatalf("hosts=%d capacity=%d seed=%d shards=%d: caches differ from the serial reference\n%s",
						cfg.Hosts, cfg.CacheCapacity, seed, shards, d)
				}
			}
		}
	}
}

// TestWarmCachesBoundedMemory: at 100k hosts Run as a whole — the event
// run's deposit lists and the blocked warm-up's — allocates little more
// than it did when the run inserted into the caches directly, releases
// every deposit list before it returns, and leaves the caches exactly
// as the serial reference does.
func TestWarmCachesBoundedMemory(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("100k-host allocation budget in -short or -race mode")
	}
	isp := topology.GenISP(topology.AS1221)
	cfg := DefaultCompactConfig()
	cfg.Hosts = 100000
	cfg.EphemeralEvery = 100
	cfg.Shards = 2
	r := NewCompactRing(isp, cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Run()
	runtime.ReadMemStats(&after)
	gotBytes := after.TotalAlloc - before.TotalAlloc
	// Run allocated 65.5 MB when the event run inserted straight into
	// the caches and the warm-up built every path with ls.Path. The run
	// now queues its ~0.8 M deposits, ~3.2 MB that append growth about
	// doubles. One warm-up block's lists hold ~8192 x 40 handles, ~1.3
	// MB; unblocked, 100k hosts would queue ~4 M handles, ~32 MB
	// allocated.
	const directRunBytes, slack = 65.5e6, 8 << 20
	t.Logf("Run allocated %.2f MB; %.1f MB with direct inserts", float64(gotBytes)/1e6, directRunBytes/1e6)
	if gotBytes > directRunBytes+slack {
		t.Errorf("Run allocated %.1f MB, %.1f MB with direct inserts; budget +%d MB",
			float64(gotBytes)/1e6, directRunBytes/1e6, slack>>20)
	}
	if r.deposits != nil {
		t.Error("Run returned with its deposit lists still held")
	}
	ref := converged(isp, cfg)
	refWarmCaches(ref)
	if d := diffCaches(r, ref); d != "" {
		t.Fatalf("caches differ from the serial reference at 100k hosts\n%s", d)
	}
}

func compactMetricsTable(m sim.Metrics) string {
	var b strings.Builder
	for _, name := range m.CounterNames() {
		fmt.Fprintf(&b, "ctr %s %d\n", name, m.Counter(name))
	}
	for _, name := range m.SampleNames() {
		s := sim.Summarize(m.Samples(name))
		fmt.Fprintf(&b, "smp %s n=%d p50=%.6f p99=%.6f\n", name, s.N, s.P50, s.P99)
	}
	return b.String()
}

// TestCompactRingConverges checks the stabilized ring against the
// sorted-order oracle: every member's successor group must be exactly
// the next SuccessorGroup members clockwise, and every predecessor the
// true ring predecessor.
func TestCompactRingConverges(t *testing.T) {
	isp := compactTestISP()
	cfg := smallCompactConfig()
	cfg.Journal = true
	r := NewCompactRing(isp, cfg)
	end := r.Run()
	if end <= 0 {
		t.Fatal("run performed no virtual time")
	}

	m := r.Members()
	sorted := make([]ident.Handle, m)
	for i := range sorted {
		sorted[i] = ident.Handle(i)
	}
	sort.Slice(sorted, func(i, j int) bool {
		return r.IDOf(sorted[i]).Less(r.IDOf(sorted[j]))
	})
	rank := make(map[ident.Handle]int, m)
	for i, h := range sorted {
		rank[h] = i
	}
	for _, h := range sorted {
		i := rank[h]
		want := cfg.SuccessorGroup
		if want > m-1 {
			want = m - 1
		}
		if got := r.NumSucc(h); got != want {
			t.Fatalf("member %d has %d successors, want %d", h, got, want)
		}
		for k := 0; k < want; k++ {
			if got, w := r.Succ(h, k), sorted[(i+1+k)%m]; got != w {
				t.Fatalf("member %d successor[%d] = %d, want %d", h, k, got, w)
			}
		}
		if got, w := r.Pred(h), sorted[(i-1+m)%m]; got != w {
			t.Fatalf("member %d pred = %d, want %d", h, got, w)
		}
	}
	if r.Metrics().Counter(MsgCompactControl) == 0 {
		t.Fatal("convergence charged no control messages")
	}
	if !strings.Contains(r.JournalText(), "stable") {
		t.Fatal("journal records no stable transitions")
	}
}

// TestCompactShardInvariance is the PR-10 analogue of the cross-driver
// journal gate: at a fixed seed, the rendered journal, the merged
// metrics table, the complete final routing state (pointer caches
// included), the event count and the finish time must be byte-identical
// for 1, 2, and 8 shards.
func TestCompactShardInvariance(t *testing.T) {
	isp := compactTestISP()
	run := func(shards int) (string, string, string, int64, sim.Time) {
		cfg := smallCompactConfig()
		cfg.Shards = shards
		cfg.Journal = true
		r := NewCompactRing(isp, cfg)
		end := r.Run()
		return r.JournalText(), compactMetricsTable(r.Metrics()), compactState(r), r.eng.Events(), end
	}
	refJ, refM, refS, refEv, refEnd := run(1)
	if len(refJ) == 0 || refEv == 0 {
		t.Fatal("reference journal or event count empty; invariance test is vacuous")
	}
	for _, shards := range []int{2, 8} {
		j, m, s, ev, end := run(shards)
		if ev != refEv {
			t.Errorf("event count diverged at %d shards: %d vs %d", shards, ev, refEv)
		}
		if j != refJ {
			t.Errorf("journal diverged at %d shards (lens %d vs %d)", shards, len(j), len(refJ))
		}
		if m != refM {
			t.Errorf("metrics diverged at %d shards:\n%s\nvs\n%s", shards, m, refM)
		}
		if s != refS {
			t.Errorf("final state diverged at %d shards", shards)
		}
		if end != refEnd {
			t.Errorf("finish time diverged at %d shards: %v vs %v", shards, end, refEnd)
		}
	}
}

// TestCompactProbeDelivery routes probes between sampled member pairs
// on a converged ring and requires delivery with sane stretch; probes
// to ephemeral identifiers must deliver over their predecessor's parked
// source route.
func TestCompactProbeDelivery(t *testing.T) {
	isp := compactTestISP()
	cfg := smallCompactConfig()
	r := NewCompactRing(isp, cfg)
	r.Run()

	state := uint64(99)
	for i := 0; i < 500; i++ {
		from := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
		to := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
		res, err := r.Probe(from, r.IDOf(to))
		if err != nil {
			t.Fatalf("probe %d->%d: %v", from, to, err)
		}
		if !res.Delivered {
			t.Fatalf("probe %d->%d not delivered (stuck after %d steps)", from, to, res.RingSteps)
		}
		if res.Stretch < 1 {
			t.Fatalf("probe %d->%d stretch %.3f < 1", from, to, res.Stretch)
		}
	}
	if r.Ephemerals() == 0 {
		t.Fatal("config produced no ephemerals")
	}
	for i := 0; i < r.Ephemerals(); i++ {
		child := ident.Handle(r.Members() + i)
		from := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
		res, err := r.Probe(from, r.IDOf(child))
		if err != nil {
			t.Fatalf("ephemeral probe to %d: %v", child, err)
		}
		if !res.Delivered || !res.Parked {
			t.Fatalf("ephemeral probe to %d: delivered=%v parked=%v, want both", child, res.Delivered, res.Parked)
		}
	}
	pm := r.ProbeMetrics()
	if pm.Counter(CtrCompactCacheHit) == 0 {
		t.Error("probes never hit a pointer cache")
	}
	if len(pm.Samples(SampleCompactStretch)) == 0 {
		t.Error("no stretch samples recorded")
	}
}

// TestCompactProbeJoin measures splice cost on the converged ring and
// checks the walk leaves the ring unmodified.
func TestCompactProbeJoin(t *testing.T) {
	isp := compactTestISP()
	r := NewCompactRing(isp, smallCompactConfig())
	r.Run()
	before := compactState(r)
	state := uint64(5)
	for i := 0; i < 50; i++ {
		from := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
		j := ident.FromUint64(sim.SplitMix64(&state))
		msgs, err := r.ProbeJoin(from, j)
		if err != nil {
			t.Fatalf("join probe %d: %v", i, err)
		}
		if msgs <= 0 {
			t.Fatalf("join probe %d cost %d messages", i, msgs)
		}
	}
	if compactState(r) != before {
		t.Fatal("join probes mutated ring state")
	}
}

// TestCompactFootprintBudget pins per-host memory at N=100k: ring state
// must stay within a few dozen bytes per member (4-byte handles, not
// 16-byte IDs) and the fully-accounted total — intern table, caches,
// parked routes, RNG states — within a few hundred bytes per host. The
// total is dominated by the fixed cache budget (318 routers x 8192
// slots x 8 B ~ 208 B/host at this N), which warmCaches fills to
// capacity; it amortizes away as N grows (SCALING.md: 107 B/host at
// 1M). This is the budget the million-host run extrapolates from.
func TestCompactFootprintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-host build in -short mode")
	}
	isp := topology.GenISP(topology.AS1221)
	cfg := DefaultCompactConfig()
	cfg.Hosts = 100000
	cfg.EphemeralEvery = 100
	cfg.Seed = 3
	r := NewCompactRing(isp, cfg)
	r.Run()

	f := r.Footprint()
	perMember := f.RingBytesPerHost(r.Members())
	// succs 3*4 + pred 4 + router 4 + nsucc 1 + stable 1 = 22 B/member.
	if perMember > 32 {
		t.Errorf("ring state %.1f B/member, budget 32", perMember)
	}
	totalPerHost := float64(f.Total()) / float64(f.Hosts)
	if totalPerHost > 350 {
		t.Errorf("total footprint %.1f B/host, budget 350", totalPerHost)
	}
	if f.Intern == 0 || f.Caches == 0 || f.RNG == 0 {
		t.Errorf("footprint accounting has zero subsystems: %+v", f)
	}

	// Spot-check convergence at this scale without the full oracle.
	state := uint64(11)
	for i := 0; i < 50; i++ {
		from := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
		to := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
		res, err := r.Probe(from, r.IDOf(to))
		if err != nil || !res.Delivered {
			t.Fatalf("probe %d->%d at 100k: delivered=%v err=%v", from, to, res.Delivered, err)
		}
	}
}

// TestCompactCacheEviction fills one router's cache past capacity and
// checks it stays bounded while remaining able to answer lookups.
func TestCompactCacheEviction(t *testing.T) {
	isp := compactTestISP()
	cfg := smallCompactConfig()
	cfg.Hosts = 2000
	cfg.CacheCapacity = 64
	r := NewCompactRing(isp, cfg)
	for h := 0; h < r.Members(); h++ {
		r.cacheInsert(0, ident.Handle(h))
	}
	r.sortCache(0)
	c := &r.caches[0]
	budget := c.bucketCap * len(c.buckets)
	if c.size > budget {
		t.Fatalf("cache holds %d entries, budget %d", c.size, budget)
	}
	if c.size == 0 {
		t.Fatal("cache empty after inserts")
	}
	hits := 0
	state := uint64(17)
	for i := 0; i < 200; i++ {
		pos := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
		dst := ident.FromUint64(sim.SplitMix64(&state))
		if _, ok := r.cacheLookup(0, r.IDOf(pos), dst); ok {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no lookup ever found a cached candidate")
	}
}

// BenchmarkCompactConverge measures building and converging a compact
// sharded ring end to end — the cost `roflsim -fig scaling` pays per
// sweep point before probing.
func BenchmarkCompactConverge(b *testing.B) {
	isp := compactTestISP()
	cfg := smallCompactConfig()
	cfg.Hosts = 2000
	cfg.Shards = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewCompactRing(isp, cfg)
		r.Run()
	}
}

// BenchmarkCompactProbe measures one greedy data-plane walk over a
// converged compact ring with warm caches.
func BenchmarkCompactProbe(b *testing.B) {
	isp := compactTestISP()
	cfg := smallCompactConfig()
	cfg.Hosts = 2000
	r := NewCompactRing(isp, cfg)
	r.Run()
	state := uint64(99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
		to := ident.Handle(sim.SplitMix64(&state) % uint64(r.Members()))
		if _, err := r.Probe(from, r.IDOf(to)); err != nil {
			b.Fatal(err)
		}
	}
}
