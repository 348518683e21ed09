package vring

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
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

// cacheText renders one router's cache exactly: size, then each
// nonempty bucket's charged capacity and handles in slot order.
func cacheText(r *CompactRing, router int) string {
	c := &r.caches[router]
	var b strings.Builder
	fmt.Fprintf(&b, "cache %d size=%d\n", router, c.size)
	for i, w := range c.buckets {
		off, n := span(w)
		if capFor[n] == 0 {
			continue
		}
		fmt.Fprintf(&b, " b%d cap=%d", i, capFor[n])
		for _, s := range c.slots[off : off+n] {
			fmt.Fprintf(&b, " %d", s.h)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// cacheLookup is cacheFloor for a destination the ring has not interned:
// every key tie reads the slot's full ID.
func (r *CompactRing) cacheLookup(router uint32, pos, dst ident.ID) (ident.Handle, bool) {
	return r.cacheFloor(router, pos, dst, ident.NoHandle)
}

// journalText renders the convergence journal (enabled with
// r.eng.EnableJournal before Run) in global processing order, for the
// shard-invariance test to byte-compare across shard counts.
func journalText(r *CompactRing) string {
	var b strings.Builder
	for _, e := range r.eng.Journal() {
		switch e.Kind {
		case cjPredAdopt:
			fmt.Fprintf(&b, "t=%.3f %s pred-adopt %s\n", float64(e.At), r.ids[e.Node].Short(), r.ids[e.A].Short())
		case cjSuccAdopt:
			fmt.Fprintf(&b, "t=%.3f %s succ-merge from=%s n=%d\n", float64(e.At), r.ids[e.Node].Short(), r.ids[e.A].Short(), e.B)
		case cjStable:
			fmt.Fprintf(&b, "t=%.3f %s stable n=%d\n", float64(e.At), r.ids[e.Node].Short(), e.A)
		}
	}
	return b.String()
}

// refCache is the reference beside a compactCache of the same capacity:
// the same bucketing, each bucket an ID-sorted slice of (handle, stamp)
// slots grown by append, and a clock counting its inserts. Exact LRU
// within a bucket needs the stamps here; the newest-first build, which
// sees a cache's whole deposit sequence at once, needs none.
type refCache struct {
	buckets   [][]refSlot
	bucketCap int
	shift     uint
	clock     uint32
	size      int
}

type refSlot struct {
	h     ident.Handle
	stamp uint32
}

func newRefCache(capacity int) *refCache {
	c := newCompactCache(capacity)
	return &refCache{buckets: make([][]refSlot, len(c.buckets)), bucketCap: c.bucketCap, shift: c.shift}
}

// refCacheInsert is the insert rule the newest-first build must
// reproduce: every bucket kept in ID order at every insert, a refresh
// restamping its slot in place, an eviction removing the oldest stamp
// wherever it sits.
func refCacheInsert(c *refCache, ids []ident.ID, h ident.Handle) {
	if len(c.buckets) == 0 {
		return
	}
	id := ids[h]
	b := int(binary.BigEndian.Uint32(id[:4]) >> c.shift)
	bkt := c.buckets[b]
	i := ident.Search(len(bkt), func(k int) *ident.ID { return &ids[bkt[k].h] }, id)
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
	bkt = append(bkt, refSlot{})
	copy(bkt[i+1:], bkt[i:])
	bkt[i] = refSlot{h: h, stamp: c.clock}
	c.buckets[b] = bkt
	c.size++
}

// text renders the reference as cacheText renders a compact cache, each
// bucket's capacity the one append growth gave it.
func (c *refCache) text(router int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache %d size=%d\n", router, c.size)
	for i, bkt := range c.buckets {
		if cap(bkt) == 0 {
			continue
		}
		fmt.Fprintf(&b, " b%d cap=%d", i, cap(bkt))
		for _, s := range bkt {
			fmt.Fprintf(&b, " %d", s.h)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// refWarmCaches is the serial warm-up the blocked, sharded warmCaches
// must reproduce: each router's refSequences deposits, each inserted
// through refCacheInsert in turn. It returns one reference cache per
// router.
func refWarmCaches(r *CompactRing) []*refCache {
	refs := make([]*refCache, r.nrouters)
	for rt, seq := range refSequences(r) {
		refs[rt] = newRefCache(r.cfg.CacheCapacity)
		for _, h := range seq {
			refCacheInsert(refs[rt], r.ids, h)
		}
	}
	return refs
}

// refSequences returns every router's warm-up deposits, oldest first:
// the event run's, then every member's stabilize round-trip deposits in
// handle order, then every member's join-epoch residue. It consumes
// r.deposits.
func refSequences(r *CompactRing) [][]ident.Handle {
	seqs := r.deposits
	r.deposits = nil
	depositAlong := func(a, b uint32, h ident.Handle) {
		if a == b {
			return
		}
		for _, node := range r.ls.Path(topology.NodeID(a), topology.NodeID(b))[1:] {
			seqs[node] = append(seqs[node], h)
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
			rt := sim.SplitMix64(&st) % uint64(r.nrouters)
			seqs[rt] = append(seqs[rt], ident.Handle(u))
		}
	}
	return seqs
}

// buildCache builds router's cache newest-first from seq, its deposits
// oldest first, handing seq to takeOlder in pieces of at most chunk
// deposits, the newest piece first, as warmCaches hands over its lists.
func (r *CompactRing) buildCache(router uint32, seq []ident.Handle, chunk int) {
	c := &r.caches[router]
	c.startBuild()
	for hi := len(seq); hi > 0; hi -= chunk {
		r.takeOlder(c, seq[max(0, hi-chunk):hi])
	}
	r.finishBuild(c)
}

// TestCacheInsertMatchesReference: the newest-first build leaves a
// cache exactly as refCacheInsert's inserts do — handles in slot order,
// charged bucket capacities and size — for seeded handle sequences with
// repeats, handed over whole, one deposit at a time and in pieces, on a
// cache that never fills, on caches that evict, and on one whose
// bucketCap (12) is not a capacity append growth gives.
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
		{16, 40, true},  // one bucket
		{48, 300, true}, // 4 buckets of 12, capFor[12] = 16
	} {
		cfg.CacheCapacity = tc.capacity
		for seed := uint64(1); seed <= 3; seed++ {
			got, ref := NewCompactRing(isp, cfg), newRefCache(cfg.CacheCapacity)
			distinct := map[ident.Handle]bool{}
			seq := make([]ident.Handle, 20*tc.pool)
			st := seed
			for i := range seq {
				seq[i] = ident.Handle(sim.SplitMix64(&st) % uint64(tc.pool))
				distinct[seq[i]] = true
				refCacheInsert(ref, got.ids, seq[i])
			}
			got.buildCache(0, seq, []int{len(seq), 1, 97}[seed-1])
			if evicted := ref.size < len(distinct); evicted != tc.evicts {
				t.Fatalf("capacity=%d pool=%d: evicted=%v, want %v", tc.capacity, tc.pool, evicted, tc.evicts)
			}
			if x, y := cacheText(got, 0), ref.text(0); x != y {
				t.Fatalf("capacity=%d pool=%d seed=%d: cache differs from the reference\ngot:\n%.600s\nwant:\n%.600s",
					tc.capacity, tc.pool, seed, x, y)
			}
		}
	}
}

// FuzzCompactCacheBuild holds the newest-first build to refCacheInsert
// on arbitrary deposit streams (two bytes a handle, so repeats are
// common) at arbitrary capacities, handed over in arbitrary pieces:
// every bucket's handles in slot order, its charged capacity and the
// size must match.
func FuzzCompactCacheBuild(f *testing.F) {
	isp := compactTestISP()
	cfg := smallCompactConfig()
	cfg.Hosts, cfg.EphemeralEvery = 2000, 0
	got := NewCompactRing(isp, cfg)
	f.Add(uint16(48), uint8(5), []byte("\x00\x01\x00\x02\x00\x01\x07\xcf\x00\x02"))
	f.Add(uint16(16), uint8(1), []byte("abcdabcdefghijklmnopqrstuvwxyzab"))
	f.Add(uint16(0), uint8(3), []byte("\x01\x02\x03\x04"))
	f.Add(uint16(1000), uint8(0), []byte("\xff\xff\x00\x00\x12\x34\x00\x00"))
	f.Fuzz(func(t *testing.T, capacity uint16, chunk uint8, stream []byte) {
		got.caches[0] = newCompactCache(int(capacity % 2048))
		ref := newRefCache(int(capacity % 2048))
		seq := make([]ident.Handle, len(stream)/2)
		for i := range seq {
			seq[i] = ident.Handle(int(stream[2*i])<<8|int(stream[2*i+1])) % ident.Handle(cfg.Hosts)
			refCacheInsert(ref, got.ids, seq[i])
		}
		got.buildCache(0, seq, int(chunk)+1)
		if x, y := cacheText(got, 0), ref.text(0); x != y {
			t.Fatalf("capacity=%d chunk=%d: cache differs from the reference\ngot:\n%.600s\nwant:\n%.600s",
				capacity%2048, int(chunk)+1, x, y)
		}
	})
}

// digestConfigs are TestCompactStateDigest's configurations: a ring
// whose caches never fill, one that evicts, and two where the warm-up
// reaches a router's run deposits with room left in their buckets, so
// their order shows (2,000 hosts with 2,048 entries at router 17; 1,000
// with 1,024 at routers 8 and 17).
func digestConfigs() []CompactConfig {
	evicting := smallCompactConfig()
	evicting.Hosts, evicting.CacheCapacity, evicting.EphemeralEvery = 2000, 64, 20
	pressed := evicting
	pressed.CacheCapacity = 2048
	half := smallCompactConfig()
	half.Hosts, half.CacheCapacity = 1000, 1024
	return []CompactConfig{smallCompactConfig(), evicting, pressed, half}
}

// TestCompactStateDigest pins the complete post-Run state — every
// successor group, predecessor, cached handle in slot order, charged
// bucket capacity and cache size — of each of digestConfigs at 1 and 8
// shards to the digests of the state built when every deposit went
// straight through refCacheInsert's rule.
func TestCompactStateDigest(t *testing.T) {
	isp := compactTestISP()
	wants := []string{
		"fb005ab0647c6b044a4605ade39c34acbe45348d11fc0f71a05042c2f94d9ad3",
		"2e2d2eabda6608bcdcf5af8a9eeb930596b7022d684c1a5f64cdd1829343a2f9",
		"7e2091b2a04a1e3107ca5c60dc6f50062afd4737c837cc3ce6950b07c14ca6ed",
		"f0d4b4b1669fa550645c518d1e6b896fb65c8d144dbf44b0d98d450359867b04",
	}
	for i, base := range digestConfigs() {
		for _, shards := range []int{1, 8} {
			cfg := base
			cfg.Shards = shards
			r := NewCompactRing(isp, cfg)
			r.Run()
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(compactState(r)))); got != wants[i] {
				t.Errorf("hosts=%d capacity=%d shards=%d: state digest %s, want %s",
					cfg.Hosts, cfg.CacheCapacity, shards, got, wants[i])
			}
		}
	}
}

// TestCompactStateDigestSeesPerturbations holds digestConfigs to what
// they guard: for each perturbation of a fact the digest pins, at least
// two configurations' digests must change, so that none rests on a
// single configuration.
//   - Reverse one router's run-deposit list between the engine run and
//     the warm-up. Each router is tried in turn.
//   - Drop one run deposit. Every run exchange repeats until the ring is
//     stable, so each dropped handle is deposited again, and a drop can
//     show only where a bucket fills while the run's deposits are read:
//     at a router whose reversal showed. Its deposits are tried newest
//     first, the warm-up's read order.
//   - Swap two members of one successor group after Run.
//
// A router's cache depends only on its own deposits, so the search
// builds the one cache a try changes from refSequences; each hit is then
// confirmed through warmCaches and the digest.
func TestCompactStateDigestSeesPerturbations(t *testing.T) {
	isp := compactTestISP()
	seen := map[string]map[string][]string{} // perturbation -> configuration -> where
	see := func(p, name, where string) {
		if seen[p] == nil {
			seen[p] = map[string][]string{}
		}
		seen[p][name] = append(seen[p][name], where)
	}
	for _, cfg := range digestConfigs() {
		name := fmt.Sprintf("%d×%d", cfg.Hosts, cfg.CacheCapacity)
		ref := NewCompactRing(isp, cfg)
		ref.Run()
		want := sha256.Sum256([]byte(compactState(ref)))
		r := NewCompactRing(isp, cfg)
		r.eng.Run()
		run := slices.Clone(r.deposits)
		seqs := refSequences(r)
		// shows reports whether router rt's cache, built from its
		// sequence with the run part replaced by list, differs from Run's.
		shows := func(rt int, list []ident.Handle) bool {
			r.caches[rt] = newCompactCache(cfg.CacheCapacity)
			r.buildCache(uint32(rt), append(slices.Clip(list), seqs[rt][len(run[rt]):]...), len(seqs[rt]))
			return cacheText(r, rt) != cacheText(ref, rt)
		}
		// digestShows confirms a hit: the whole warm-up from the run's
		// deposits, router rt's list replaced by list, moves the digest.
		digestShows := func(rt int, list []ident.Handle) bool {
			for i := range r.caches {
				r.caches[i] = newCompactCache(cfg.CacheCapacity)
			}
			r.deposits = slices.Clone(run)
			r.deposits[rt] = list
			r.warmCaches()
			return sha256.Sum256([]byte(compactState(r))) != want
		}
		for rt, list := range run {
			if shows(rt, list) {
				t.Fatalf("%s: router %d's cache built from its deposits differs from Run's", name, rt)
			}
			reversed := slices.Clone(list)
			slices.Reverse(reversed)
			if !shows(rt, reversed) {
				continue
			}
			if digestShows(rt, reversed) {
				see("reverse", name, fmt.Sprintf("router %d", rt))
			}
			for i := len(list) - 1; i >= 0; i-- {
				if dropped := slices.Delete(slices.Clone(list), i, i+1); shows(rt, dropped) {
					if digestShows(rt, dropped) {
						see("drop", name, fmt.Sprintf("router %d deposit %d of %d", rt, i, len(list)))
					}
					break
				}
			}
		}
		u := slices.IndexFunc(ref.nsucc, func(n uint8) bool { return n >= 2 })
		g := ref.succs[u*cfg.SuccessorGroup:]
		g[0], g[1] = g[1], g[0]
		if sha256.Sum256([]byte(compactState(ref))) != want {
			see("swap", name, "successor group")
		}
	}
	for _, p := range []string{"reverse", "drop", "swap"} {
		if len(seen[p]) < 2 {
			t.Errorf("%s: %d configurations' state digests changed, want at least 2", p, len(seen[p]))
		}
		t.Logf("%s: digest changed at %v", p, seen[p])
	}
}

// converged builds a ring and runs only its sharded engine, leaving the
// caches as the run's endpoint deposits left them, before any warm-up.
func converged(isp *topology.ISP, cfg CompactConfig) *CompactRing {
	r := NewCompactRing(isp, cfg)
	r.eng.Run()
	return r
}

// diffCaches returns the first router whose cache differs from its
// reference, rendered both ways, or a mismatch between the cache bytes
// Footprint charges and the capacity append growth gave the reference's
// buckets, or "" when every cache is identical.
func diffCaches(r *CompactRing, refs []*refCache) string {
	held := 0
	for rt := range r.caches {
		if x, y := cacheText(r, rt), refs[rt].text(rt); x != y {
			return fmt.Sprintf("got:\n%.600s\nwant:\n%.600s", x, y)
		}
		for _, bkt := range refs[rt].buckets {
			held += cap(bkt) * 8
		}
	}
	if got := r.Footprint().Caches; got != held {
		return fmt.Sprintf("Footprint charges %d cache bytes, the reference's buckets hold %d", got, held)
	}
	return ""
}

// TestWarmCachesMatchesSerialReference: the blocked, sharded warm-up
// leaves every router's cache — handles in slot order, charged bucket
// capacities and size — exactly as the serial reference does, at every shard count,
// on a ring whose caches never fill and on one that evicts.
func TestWarmCachesMatchesSerialReference(t *testing.T) {
	isp := compactTestISP()
	evicting := smallCompactConfig()
	evicting.Hosts, evicting.CacheCapacity, evicting.EphemeralEvery = 2000, 64, 20
	for _, base := range []CompactConfig{smallCompactConfig(), evicting} {
		for _, seed := range []int64{7, 11} {
			cfg := base
			cfg.Seed = seed
			refs := refWarmCaches(converged(isp, cfg))
			for _, shards := range []int{1, 2, 3, 8} {
				cfg.Shards = shards
				r := converged(isp, cfg)
				r.warmCaches()
				if d := diffCaches(r, refs); d != "" {
					t.Fatalf("hosts=%d capacity=%d seed=%d shards=%d: caches differ from the serial reference\n%s",
						cfg.Hosts, cfg.CacheCapacity, seed, shards, d)
				}
			}
		}
	}
}

// TestWarmCachesBoundedMemory: at 100k hosts Run as a whole — the event
// run's deposit lists, the warm-up's block lists and one cache slab per
// router — allocates little, releases every deposit list before it
// returns, and leaves the caches exactly as the serial reference does.
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
	// HandleMsg runs once per event on pre-sized slabs; only the deposit
	// lists grow, by amortised append. Run measured ~9.4k mallocs over
	// 3,138,984 control messages, 0.003 per message: the lists' growth,
	// one cache slab per router and the engine's slab and bucket arrays.
	// One allocation per handled event would add at least 0.37.
	const mallocsPerMsgBudget = 0.01
	ctl := r.Metrics().Counter(MsgCompactControl)
	mallocsPerMsg := float64(after.Mallocs-before.Mallocs) / float64(ctl)
	t.Logf("Run: %d mallocs over %d control messages, %.3f per message", after.Mallocs-before.Mallocs, ctl, mallocsPerMsg)
	if mallocsPerMsg > mallocsPerMsgBudget {
		t.Errorf("Run made %.3f mallocs per control message, budget %.2f", mallocsPerMsg, mallocsPerMsgBudget)
	}
	// Run allocated 36.3 MB: the event run's ~0.8 M queued deposits
	// (~3.2 MB, which append growth about doubles), one warm-up block's
	// lists (~8192 x 40 handles, ~1.3 MB; unblocked, 100k hosts would
	// queue ~4 M handles, ~32 MB), the 318 cache slabs (~20.8 MB) and
	// the engine's heaps. The engine's window buckets, with their slab,
	// free list and pooled bucket arrays, allocate ~3.8 MB more: 40.1 MB.
	const runBytes, slack = 36.3e6, 8 << 20
	t.Logf("Run allocated %.2f MB; reference %.1f MB", float64(gotBytes)/1e6, runBytes/1e6)
	if gotBytes > runBytes+slack {
		t.Errorf("Run allocated %.1f MB, reference %.1f MB; budget +%d MB",
			float64(gotBytes)/1e6, runBytes/1e6, slack>>20)
	}
	if r.deposits != nil {
		t.Error("Run returned with its deposit lists still held")
	}
	if d := diffCaches(r, refWarmCaches(converged(isp, cfg))); d != "" {
		t.Fatalf("caches differ from the serial reference at 100k hosts\n%s", d)
	}
}

// TestCompactRunBucketsEveryEvent: every event of a compact ring's run
// is sent 1 to 63 windows ahead (a stabilize timer 10-20, a control
// message at least one), so none waits in the sharded engine's overflow
// list, at any shard count. A timer set further ahead than the engine's
// bucket ring reaches (63 windows) does, so the count cannot read 0 for
// want of counting.
func TestCompactRunBucketsEveryEvent(t *testing.T) {
	isp := topology.GenISP(topology.AS1221)
	cfg := DefaultCompactConfig()
	cfg.EphemeralEvery = 100
	for _, shards := range []int{1, 2, 8} {
		cfg.Shards = shards
		r := NewCompactRing(isp, cfg)
		r.Run()
		if n, ev := r.eng.OverflowEvents(), r.eng.Events(); n != 0 || ev == 0 {
			t.Errorf("%d shards: %d of %d events waited in the overflow, want 0", shards, n, ev)
		}
	}
	const timers = 5
	e := sim.NewSharded(1, 1, compactLookahead, nil, farTimer{rounds: timers})
	e.Prime(0, sim.Msg{})
	e.Run()
	if n := e.OverflowEvents(); n != timers {
		t.Errorf("%d timers 100 windows ahead, %d overflow events", timers, n)
	}
}

// farTimer re-arms node 0's timer 100 windows ahead, rounds times.
type farTimer struct{ rounds uint16 }

func (z farTimer) HandleMsg(sc *sim.ShardContext, m sim.Msg) {
	if m.Hop < z.rounds {
		sc.Send(100*compactLookahead, sim.Msg{Hop: m.Hop + 1})
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

// TestCompactIDsAliasIntern: the ring reads IDs from the intern's own
// slab, which Footprint charges once, not from an uncharged copy.
func TestCompactIDsAliasIntern(t *testing.T) {
	r := NewCompactRing(compactTestISP(), smallCompactConfig())
	ids := r.intern.IDs()
	if len(r.ids) != len(ids) || &r.ids[0] != &ids[0] {
		t.Fatal("CompactRing.ids is a copy of the intern's ID slab, not an alias")
	}
}

// TestCompactRingConverges checks the stabilized ring against sorted
// order: every member's successor group must be exactly the next
// SuccessorGroup members clockwise, and every predecessor the true ring
// predecessor. A predecessor planted off sorted order must fail the
// check.
func TestCompactRingConverges(t *testing.T) {
	isp := compactTestISP()
	cfg := smallCompactConfig()
	r := NewCompactRing(isp, cfg)
	r.eng.EnableJournal()
	end := r.Run()
	if end <= 0 {
		t.Fatal("run performed no virtual time")
	}
	exact, err := r.Check()
	if err != nil {
		t.Fatal(err)
	}
	if exact != r.Members() {
		t.Fatalf("%d of %d members hold exactly the next %d members", exact, r.Members(), cfg.SuccessorGroup)
	}
	pred := r.pred[0]
	r.pred[0] = r.Succ(0, 0)
	if _, err := r.Check(); err == nil || !strings.Contains(err.Error(), "has predecessor") {
		t.Fatalf("planted predecessor not caught: %v", err)
	}
	r.pred[0] = pred
	if r.Metrics().Counter(MsgCompactControl) == 0 {
		t.Fatal("convergence charged no control messages")
	}
	if !strings.Contains(journalText(r), "stable") {
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
		r := NewCompactRing(isp, cfg)
		r.eng.EnableJournal()
		end := r.Run()
		return journalText(r), compactMetricsTable(r.Metrics()), compactState(r), r.eng.Events(), end
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

// TestCompactCacheEviction builds one router's cache from more distinct
// handles than it holds and checks it stays bounded while remaining
// able to answer lookups.
func TestCompactCacheEviction(t *testing.T) {
	isp := compactTestISP()
	cfg := smallCompactConfig()
	cfg.Hosts = 2000
	cfg.CacheCapacity = 64
	r := NewCompactRing(isp, cfg)
	seq := make([]ident.Handle, r.Members())
	for h := range seq {
		seq[h] = ident.Handle(h)
	}
	r.buildCache(0, seq, len(seq))
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

// TestCompactCacheLookupExactFloor: a lookup returns the largest cached
// ID at or below dst, circularly, however many empty buckets lie
// between. On a 128-bucket cache holding one handle in a low bucket and
// one in the top bucket, dst 70 buckets above the low one must find the
// low handle (a walk bounded at 64 buckets wrapped to the top one and
// missed); with every entry above dst in dst's own bucket, the lookup
// returns that bucket's maximum.
func TestCompactCacheLookupExactFloor(t *testing.T) {
	isp := compactTestISP()
	cfg := smallCompactConfig()
	cfg.Hosts, cfg.CacheCapacity, cfg.EphemeralEvery = 2000, 2048, 0
	r := NewCompactRing(isp, cfg)
	c := &r.caches[0]
	nb := len(c.buckets)
	if nb != 128 {
		t.Fatalf("%d buckets, want 128", nb)
	}
	const low = 3
	inBucket := func(b int) []ident.Handle {
		var hs []ident.Handle
		for h := 0; h < r.Members(); h++ {
			if r.bucketOf(c, r.ids[h]) == b {
				hs = append(hs, ident.Handle(h))
			}
		}
		if len(hs) < 2 {
			t.Fatalf("bucket %d holds %d members, want at least 2", b, len(hs))
		}
		return hs
	}
	bucketStart := func(b int) ident.ID {
		var id ident.ID
		binary.BigEndian.PutUint32(id[:4], uint32(b)<<c.shift)
		return id
	}

	lowH, topH := inBucket(low)[0], inBucket(nb - 1)[0]
	r.buildCache(0, []ident.Handle{lowH, topH}, 2)
	dst := bucketStart(low + 70)
	got, ok := r.cacheLookup(0, r.ids[lowH].Prev(), dst)
	if !ok || got != lowH {
		t.Fatalf("dst 70 buckets above the low handle: got %d ok=%v, want %d", got, ok, lowH)
	}

	hs := inBucket(nb / 2)
	r.caches[0] = newCompactCache(cfg.CacheCapacity)
	r.buildCache(0, hs, len(hs))
	maxH := hs[0]
	for _, h := range hs {
		if r.ids[maxH].Less(r.ids[h]) {
			maxH = h
		}
	}
	got, ok = r.cacheLookup(0, r.ids[maxH].Prev(), bucketStart(nb/2))
	if !ok || got != maxH {
		t.Fatalf("every entry above dst: got %d ok=%v, want the bucket maximum %d", got, ok, maxH)
	}
}

// TestCompactCacheKeyTies pins the full IDs a lookup reads in dst's own
// bucket to none over a 10k-host probe pass. A slot holding dst itself
// matches by handle, and two distinct IDs share a key (41 leading bits
// at 512 buckets) with odds ~10^4 in 2^41. The pass must include probes
// whose first lookup finds dst cached, so the handle match is what keeps
// the count at 0; and the tie branch is live: two planted IDs sharing
// their first 41 bits, looked up from between them, are both read.
func TestCompactCacheKeyTies(t *testing.T) {
	ties := 0
	testHookKeyTie = func() { ties++ }
	defer func() { testHookKeyTie = nil }()

	cfg := DefaultCompactConfig()
	cfg.EphemeralEvery = 100
	r := NewCompactRing(topology.GenISP(topology.AS1221), cfg)
	r.Run()
	cached := func(c *compactCache, h ident.Handle) bool {
		for _, w := range c.buckets {
			off, n := span(w)
			if slices.ContainsFunc(c.slots[off:off+n], func(s cacheSlot) bool { return s.h == h }) {
				return true
			}
		}
		return false
	}
	const probes = 20000
	dstCached := 0
	st := uint64(3)
	for i := 0; i < probes; i++ {
		from := ident.Handle(sim.SplitMix64(&st) % uint64(r.Members()))
		to := ident.Handle(sim.SplitMix64(&st) % uint64(r.Members()))
		if r.router[to] != r.router[from] && cached(&r.caches[r.router[from]], to) {
			dstCached++
		}
		if res, err := r.Probe(from, r.IDOf(to)); err != nil || !res.Delivered {
			t.Fatalf("probe %d->%d: delivered=%v err=%v", from, to, res.Delivered, err)
		}
	}
	hits := r.ProbeMetrics().Counter(CtrCompactCacheHit)
	t.Logf("%d probes, %d cache hits, %d probes whose first lookup finds dst cached, %d tie reads", probes, hits, dstCached, ties)
	if hits == 0 || dstCached == 0 {
		t.Fatalf("%d cache hits, %d probes whose first lookup finds dst cached; the pass tests nothing", hits, dstCached)
	}
	if ties != 0 {
		t.Errorf("%d full-ID reads on key ties over %d probes, want 0", ties, probes)
	}

	// a, mid and b share bucket 5 and key 0xdeadbeef of a 512-bucket cache
	// (shift 23) and differ only in the bits below.
	prefix := uint64(5)<<55 | uint64(0xdeadbeef)<<23
	var a, mid, b ident.ID
	binary.BigEndian.PutUint64(a[:8], prefix|1)
	binary.BigEndian.PutUint64(mid[:8], prefix|2)
	binary.BigEndian.PutUint64(b[:8], prefix|3)
	p := &CompactRing{ids: []ident.ID{a, b}, caches: []compactCache{newCompactCache(8192)}}
	if c := &p.caches[0]; c.shift != 23 || p.bucketOf(c, a) != 5 || c.keyOf(a) != 0xdeadbeef {
		t.Fatalf("shift %d: a in bucket %d with key %#x, want 23, 5, 0xdeadbeef", c.shift, p.bucketOf(c, a), c.keyOf(a))
	}
	p.buildCache(0, []ident.Handle{1, 0}, 2)
	ties = 0
	if got, ok := p.cacheLookup(0, ident.ID{}, mid); !ok || got != 0 || ties != 2 {
		t.Errorf("dst between two tied keys: got %d ok=%v after %d tie reads, want 0 after 2", got, ok, ties)
	}
	ties = 0
	if got, ok := p.cacheFloor(0, ident.ID{}, a, 0); !ok || got != 0 || ties != 1 {
		t.Errorf("dst a by handle: got %d ok=%v after %d tie reads, want 0 after 1 (b's)", got, ok, ties)
	}
}

// fuzzKeys are the only keys FuzzCompactCacheLookup gives its IDs, so
// keys tie often; the first two differ in their lowest bit only.
var fuzzKeys = [4]uint32{0, 0x80000000, 0x80000001, 0xffffffff}

// FuzzCompactCacheLookup holds cacheFloor to an exhaustive circular
// floor over full IDs, plus Progress, on caches built from arbitrary
// IDs: three bytes an ID pick its bucket, one of fuzzKeys and the bits
// below, so keys tie often, most buckets stay empty, and destinations
// anywhere make lookups wrap. Each lookup runs with dst's handle when
// dst is a ring ID and without it; the build must also match
// refCacheInsert, whose order reads full IDs only.
func FuzzCompactCacheLookup(f *testing.F) {
	// Two IDs of one bucket and key, dst between them (8 buckets).
	f.Add(uint8(48), []byte("\x02\x01\x30\x02\x01\x10\x02\x02\x00"), uint32(0x20010200), uint32(0))
	// Entries in buckets 1 and 6 only, dst in bucket 4: the walk goes down.
	f.Add(uint8(48), []byte("\x01\x00\x00\x06\x03\x00"), uint32(0x00000400), uint32(0))
	// Every entry above dst in dst's bucket: the walk wraps to it.
	f.Add(uint8(0), []byte("\x00\x01\x01\x00\x02\x02\x00\x01\x01"), uint32(0x00000000), uint32(0x00010000))
	// dst a ring ID whose key ties its neighbours' (one bucket).
	f.Add(uint8(0), []byte("\x00\x01\x50\x00\x01\x60\x00\x01\x40\x00\x03\xff"), uint32(3), uint32(0x02000000))
	f.Fuzz(func(t *testing.T, capSel uint8, stream []byte, dstSel, posSel uint32) {
		c := newCompactCache(4 + int(capSel)*2)
		nb := len(c.buckets)
		mk := func(bucket, key, low byte) ident.ID {
			var id ident.ID
			hi := uint64(int(bucket)%nb)<<(32+c.shift) | uint64(fuzzKeys[key%4])<<c.shift | uint64(key>>2)<<8&(1<<c.shift-1) | uint64(low>>4)
			binary.BigEndian.PutUint64(id[:8], hi)
			id[15] = low & 15
			return id
		}
		var ids []ident.ID
		var seq []ident.Handle
		handle := map[ident.ID]ident.Handle{}
		for i := 0; i+2 < len(stream); i += 3 {
			id := mk(stream[i], stream[i+1], stream[i+2])
			h, ok := handle[id]
			if !ok {
				h = ident.Handle(len(ids))
				handle[id] = h
				ids = append(ids, id)
			}
			seq = append(seq, h)
		}
		r := &CompactRing{ids: ids, caches: []compactCache{c}}
		r.buildCache(0, seq, 7)
		ref := newRefCache(4 + int(capSel)*2)
		for _, h := range seq {
			refCacheInsert(ref, ids, h)
		}
		if x, y := cacheText(r, 0), ref.text(0); x != y {
			t.Fatalf("cache differs from the reference\ngot:\n%s\nwant:\n%s", x, y)
		}
		pick := func(sel uint32) (ident.ID, ident.Handle) {
			if sel&1 == 1 && len(ids) > 0 {
				h := ident.Handle(sel >> 1 % uint32(len(ids)))
				return ids[h], h
			}
			return mk(byte(sel>>8), byte(sel>>16), byte(sel>>24)), ident.NoHandle
		}
		dst, dstH := pick(dstSel)
		pos, _ := pick(posSel)
		want, best := ident.NoHandle, ident.ID{}
		for _, bkt := range ref.buckets {
			for _, s := range bkt {
				if d := ids[s.h].Distance(dst); want == ident.NoHandle || d.Less(best) {
					want, best = s.h, d
				}
			}
		}
		if want != ident.NoHandle && !ident.Progress(pos, dst, ids[want]) {
			want = ident.NoHandle
		}
		for _, h := range []ident.Handle{dstH, ident.NoHandle} {
			if got, ok := r.cacheFloor(0, pos, dst, h); got != want || ok != (want != ident.NoHandle) {
				t.Fatalf("dst %s (handle %d) pos %s over %d buckets: got %d ok=%v, want %d\n%s",
					dst.Short(), h, pos.Short(), nb, got, ok, want, cacheText(r, 0))
			}
		}
	})
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
