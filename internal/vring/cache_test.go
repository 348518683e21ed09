package vring

import (
	"container/list"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

func id64(v uint64) ident.ID { return ident.FromUint64(v) }

func TestCacheInsertLookup(t *testing.T) {
	c := NewPointerCache(10)
	c.Insert(Pointer{ID: id64(50), Router: 5})
	c.Insert(Pointer{ID: id64(10), Router: 1})
	c.Insert(Pointer{ID: id64(90), Router: 9})
	// From pos 0 toward 60: best is 50.
	p, ok := c.Lookup(id64(0), id64(60))
	if !ok || p.ID != id64(50) {
		t.Fatalf("lookup = %v ok=%v", p, ok)
	}
	// From pos 55 toward 60: 50 would be regression; no hit.
	if _, ok := c.Lookup(id64(55), id64(60)); ok {
		t.Fatal("must not go backwards")
	}
	// Wrapping: from pos 95 toward 5, candidate 90 overshoots... 90 is
	// behind pos; no entry in (95, 5]; miss expected.
	if _, ok := c.Lookup(id64(95), id64(5)); ok {
		t.Fatal("no entry in wrapped interval")
	}
	// Exact destination hit.
	p, ok = c.Lookup(id64(0), id64(90))
	if !ok || p.ID != id64(90) {
		t.Fatal("exact match should hit")
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := NewPointerCache(10)
	c.Insert(Pointer{ID: id64(5), Router: 1})
	c.Insert(Pointer{ID: id64(5), Router: 2})
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	p, _ := c.Lookup(id64(0), id64(5))
	if p.Router != 2 {
		t.Fatal("router not updated")
	}
}

func TestCacheEvictionLRU(t *testing.T) {
	c := NewPointerCache(3)
	c.Insert(Pointer{ID: id64(1), Router: 1})
	c.Insert(Pointer{ID: id64(2), Router: 2})
	c.Insert(Pointer{ID: id64(3), Router: 3})
	// Touch 1 so it is most recently used.
	c.Lookup(id64(0), id64(1))
	c.Insert(Pointer{ID: id64(4), Router: 4}) // evicts 2 (LRU)
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, ok := c.Lookup(id64(1), id64(2)); ok {
		t.Fatal("2 should have been evicted")
	}
	if _, ok := c.Lookup(id64(0), id64(1)); !ok {
		t.Fatal("1 should survive")
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	c := NewPointerCache(0)
	c.Insert(Pointer{ID: id64(1), Router: 1})
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache must stay empty")
	}
	if _, ok := c.Lookup(id64(0), id64(5)); ok {
		t.Fatal("empty cache cannot hit")
	}
}

func TestCacheRemove(t *testing.T) {
	c := NewPointerCache(10)
	c.Insert(Pointer{ID: id64(1), Router: 1})
	c.Insert(Pointer{ID: id64(2), Router: 2})
	c.Remove(id64(1))
	c.Remove(id64(99)) // absent: no-op
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCacheRemoveRouter(t *testing.T) {
	c := NewPointerCache(10)
	c.Insert(Pointer{ID: id64(1), Router: 7})
	c.Insert(Pointer{ID: id64(2), Router: 8})
	c.Insert(Pointer{ID: id64(3), Router: 7})
	if got := c.RemoveRouter(7); got != 2 {
		t.Fatalf("removed = %d", got)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCacheEach(t *testing.T) {
	c := NewPointerCache(10)
	for i := uint64(1); i <= 5; i++ {
		c.Insert(Pointer{ID: id64(i * 10), Router: RouterID(i)})
	}
	var seen []ident.ID
	c.each(func(p Pointer) bool {
		seen = append(seen, p.ID)
		return len(seen) < 3
	})
	if len(seen) != 3 {
		t.Fatalf("early stop failed: %d", len(seen))
	}
	// Ascending order.
	for i := 1; i < len(seen); i++ {
		if !seen[i-1].Less(seen[i]) {
			t.Fatal("Each must iterate ascending")
		}
	}
}

// TestBestMatch pins the cache's closest-without-overshoot lookup (the
// sorted form of Algorithm 2, ident.Closest) on the cases the cache
// carried its own search for.
func TestBestMatch(t *testing.T) {
	c := NewPointerCache(8)
	for _, v := range []uint64{10, 20, 30} {
		c.Insert(Pointer{ID: id64(v), Router: RouterID(v)})
	}
	if p, ok := c.Lookup(id64(5), id64(25)); !ok || p.ID != id64(20) || p.Router != 20 {
		t.Fatalf("p=%+v ok=%v", p, ok)
	}
	// dst before all entries: wraps to last (30), which from pos 5 toward
	// 3 is progress (30 in (5, 3] circularly).
	if p, ok := c.Lookup(id64(5), id64(3)); !ok || p.ID != id64(30) {
		t.Fatalf("wrap: p=%+v ok=%v", p, ok)
	}
	// No progress possible.
	if _, ok := c.Lookup(id64(25), id64(27)); ok {
		t.Fatal("nothing in (25,27]")
	}
	if _, ok := NewPointerCache(8).Lookup(id64(0), id64(5)); ok {
		t.Fatal("empty set")
	}
}

// listLRU is the textbook LRU the cache is held to: a map for membership
// and a container/list for recency, most recent at the front. It shares
// no code and no representation with PointerCache (no stamps, no sorted
// slice, no scan).
type listLRU struct {
	cap   int
	order *list.List // of Pointer
	byID  map[ident.ID]*list.Element
}

func newListLRU(capacity int) *listLRU {
	return &listLRU{cap: capacity, order: list.New(), byID: make(map[ident.ID]*list.Element)}
}

func (m *listLRU) insert(p Pointer) {
	if e, ok := m.byID[p.ID]; ok {
		e.Value = p
		m.order.MoveToFront(e)
		return
	}
	if m.order.Len() >= m.cap {
		m.remove(m.order.Back().Value.(Pointer).ID)
	}
	m.byID[p.ID] = m.order.PushFront(p)
}

func (m *listLRU) touch(id ident.ID) { m.order.MoveToFront(m.byID[id]) }

func (m *listLRU) remove(id ident.ID) {
	if e, ok := m.byID[id]; ok {
		m.order.Remove(e)
		delete(m.byID, id)
	}
}

func (m *listLRU) removeRouter(r RouterID) (removed int) {
	for id, e := range m.byID {
		if e.Value.(Pointer).Router == r {
			m.remove(id)
			removed++
		}
	}
	return removed
}

// checkCache holds c to the model after a step: entries ascending, in
// runs of 1..runMax keyed in the index by their first entry, as many as
// the model holds and, when full is set, the same ones with the same
// routers.
func checkCache(t testing.TB, step int, c *PointerCache, model *listLRU, full bool) {
	t.Helper()
	if c.Len() != len(model.byID) {
		t.Fatalf("step %d: len %d != model %d", step, c.Len(), len(model.byID))
	}
	n := 0
	var prev ident.ID
	for k := range c.runs.Len() {
		key, run := c.runs.At(k)
		if run.Len() == 0 || run.Len() > runMax {
			t.Fatalf("step %d: run %d of %d holds %d entries", step, k, c.runs.Len(), run.Len())
		}
		if first, _ := run.At(0); first != key {
			t.Fatalf("step %d: run %d keyed %s, first %s", step, k, key.Short(), first.Short())
		}
		for i := range run.Len() {
			id, _ := run.At(i)
			if n > 0 && !prev.Less(id) {
				t.Fatalf("step %d: run %d slot %d: %s after %s", step, k, i, id, prev)
			}
			prev = id
			n++
		}
	}
	if n != c.Len() {
		t.Fatalf("step %d: runs hold %d entries, Len %d", step, n, c.Len())
	}
	if !full {
		return
	}
	c.each(func(p Pointer) bool {
		if e, ok := model.byID[p.ID]; !ok || e.Value.(Pointer) != p {
			t.Fatalf("step %d: cache holds %v, model does not", step, p)
		}
		return true
	})
}

// checkLookup holds Lookup to an exhaustive closest-without-overshoot
// scan over each, and touches the winner in the model.
func checkLookup(t testing.TB, step int, c *PointerCache, model *listLRU, pos, dst ident.ID) {
	t.Helper()
	sel := ident.NewScan(pos, dst)
	c.each(func(p Pointer) bool { sel.Offer(p.ID); return true })
	want, wantOK := sel.Best()
	p, ok := c.Lookup(pos, dst)
	if ok != wantOK || ok && p.ID != want {
		t.Fatalf("step %d: Lookup(%s, %s) = %s (%v), exhaustive scan %s (%v)", step, pos.Short(), dst.Short(), p.ID.Short(), ok, want.Short(), wantOK)
	}
	if ok {
		model.touch(p.ID)
	}
}

// removeBlock removes up to count consecutive entries from the one at or
// after from, the deletion pattern that empties whole runs.
func removeBlock(c *PointerCache, model *listLRU, from ident.ID, count int) {
	var ids []ident.ID
	c.each(func(p Pointer) bool {
		if !p.ID.Less(from) {
			ids = append(ids, p.ID)
		}
		return len(ids) < count
	})
	for _, id := range ids {
		c.Remove(id)
		model.remove(id)
	}
}

// runModel drives c and a listLRU of its capacity with a seeded mix of
// inserts, updates, lookups, removals, block removals and router
// invalidations, checking every step, and returns the number of inserts
// that evicted and the number of steps that dropped a run.
func runModel(t *testing.T, c *PointerCache, key func(*rand.Rand) ident.ID, steps int, seed int64) (evictions, dropped int) {
	t.Helper()
	model := newListLRU(c.cap)
	rng := rand.New(rand.NewSource(seed))
	// One router per two entries of capacity (at least 50), so a router
	// invalidation drops a few entries at any capacity.
	routers := max(50, c.cap/2)
	for step := 0; step < steps; step++ {
		runs := c.runs.Len()
		switch k := rng.Intn(1000); {
		case k == 0:
			removeBlock(c, model, key(rng), 1+rng.Intn(2*runMax))
		case k < 50:
			r := RouterID(rng.Intn(routers))
			if got, want := c.RemoveRouter(r), model.removeRouter(r); got != want {
				t.Fatalf("step %d: RemoveRouter(%d) = %d, model %d", step, r, got, want)
			}
		case k < 150:
			id := key(rng)
			c.Remove(id)
			model.remove(id)
		case k < 300:
			checkLookup(t, step, c, model, key(rng), key(rng))
		default:
			p := Pointer{ID: key(rng), Router: RouterID(rng.Intn(routers))}
			if _, known := model.byID[p.ID]; !known && c.Len() == c.cap {
				evictions++
			}
			c.Insert(p)
			model.insert(p)
		}
		if c.runs.Len() < runs {
			dropped++
		}
		// Comparing every entry with the model at every step would make
		// the 5,000-entry runs quadratic; a wrong eviction leaves a wrong
		// entry that outlives the next full check.
		checkCache(t, step, c, model, c.Len() <= 500 || step%50 == 0 || step == steps-1)
	}
	return evictions, dropped
}

// The min-stamp scan must keep exactly the entries a list-ordered LRU
// keeps, and Lookup must return what an exhaustive scan does, under a
// workload mixing inserts, updates, lookups (which touch), removals and
// router invalidations. Capacity 24 stays within one run; 300 and 5,000
// split runs and, through block removals, empty them. Keys come from a
// pool three times the capacity, so updates and evictions mix: random
// identifiers, and a FromUint64 keyspace whose high words are all zero.
func TestCacheEvictionMatchesLinearScanModel(t *testing.T) {
	for _, capacity := range []int{24, 300, 5000} {
		for _, space := range []string{"random", "uint64"} {
			t.Run(fmt.Sprintf("%d/%s", capacity, space), func(t *testing.T) {
				t.Parallel()
				if capacity > 300 && raceEnabled {
					t.Skip("single-goroutine model; the race detector makes 5,000 entries take half a minute")
				}
				pool := make([]ident.ID, 3*capacity)
				rng := rand.New(rand.NewSource(int64(capacity)))
				for i := range pool {
					if pool[i] = id64(uint64(i)); space == "random" {
						pool[i] = ident.Random(rng)
					}
				}
				key := func(rng *rand.Rand) ident.ID { return pool[rng.Intn(len(pool))] }
				steps := max(8000, 4*capacity)
				evictions, dropped := runModel(t, NewPointerCache(capacity), key, steps, 11)
				if evictions < 1000 {
					t.Fatalf("only %d of %d steps evicted; the workload no longer exercises eviction", evictions, steps)
				}
				if capacity > runMax && dropped == 0 {
					t.Fatal("no step dropped a run; the workload no longer empties runs")
				}
				t.Logf("%d evictions, %d steps dropped a run", evictions, dropped)
			})
		}
	}
}

// TestCacheStampWrap starts the clock 16 touches short of 2^32: the
// stamps are renumbered by rank as it wraps, and eviction still matches
// the model on either side of it.
func TestCacheStampWrap(t *testing.T) {
	for _, capacity := range []int{24, 300} {
		c := NewPointerCache(capacity)
		c.clock = math.MaxUint32 - 15
		key := func(rng *rand.Rand) ident.ID { return id64(uint64(rng.Intn(3 * capacity))) }
		evictions, _ := runModel(t, c, key, 4000, 5)
		if c.clock > uint32(8000) || evictions == 0 {
			t.Fatalf("capacity %d: clock %d after the run with %d evictions; it never wrapped or never evicted", capacity, c.clock, evictions)
		}
	}
}

// TestCacheInsertShiftBounded counts the entries each Insert moves on
// the benchmark ring (1,000 hosts, then the 3,000 measured joins). With
// one cache-wide sorted slice the measured joins moved 4,759.0 entries
// per join (14.3M in all, up to 2,948 in one insert) for 15.24 inserts
// per join, and left 65,991 cache entries. Runs bound every insert by
// runMax and leave the same entries.
func TestCacheInsertShiftBounded(t *testing.T) {
	isp := topology.GenISP(topology.AS1221)
	n := New(isp.Graph, sim.NewMetrics(), DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	joinBenchRing(t, n, isp, rng, 1000)
	moved, inserts, most := 0, 0, 0
	testHookShift = func(m int) { moved, inserts, most = moved+m, inserts+1, max(most, m) }
	t.Cleanup(func() { testHookShift = nil })
	const joins = 3000
	joinBenchRing(t, n, isp, rng, joins)
	entries := 0
	for _, r := range n.Routers {
		entries += r.Cache.Len()
	}
	t.Logf("%.1f entries moved and %.2f inserts per join, at most %d in one insert; %d cache entries",
		float64(moved)/joins, float64(inserts)/joins, most, entries)
	if most > runMax {
		t.Fatalf("one insert moved %d entries; want at most %d", most, runMax)
	}
	if moved > 400*joins {
		t.Fatalf("%d entries moved over %d joins; want at most 400 per join", moved, joins)
	}
	if entries != 65991 {
		t.Fatalf("%d cache entries after the joins; want 65991", entries)
	}
}

// TestCacheEntrySize pins an entry at 24 B across both columns: an ID's
// two words, an int32 router and a uint32 stamp.
func TestCacheEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(cacheBlock{}) / runMax; got != 24 {
		t.Fatalf("a cache entry takes %d bytes across both columns; want 24", got)
	}
}

// TestInsertWarmAllocs: an insert into a warm cache allocates only when
// it splits a run, once in dozens of inserts.
func TestInsertWarmAllocs(t *testing.T) {
	c := NewPointerCache(1 << 20)
	for _, id := range benchFillIDs(2000) {
		c.Insert(Pointer{ID: id, Router: 1})
	}
	rng := rand.New(rand.NewSource(9))
	avg := testing.AllocsPerRun(1000, func() { c.Insert(Pointer{ID: ident.Random(rng), Router: 2}) })
	if avg > 0.1 {
		t.Fatalf("PointerCache.Insert into a warm cache allocates %v per op; want at most 0.1", avg)
	}
}

// FuzzCacheMatchesModel drives Insert, Lookup, Remove and RemoveRouter
// from op bytes against listLRU, at a capacity above runMax so runs
// split, with bursts of inserts so short inputs reach it.
func FuzzCacheMatchesModel(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 2, 9, 9, 0, 5, 5, 3, 7, 7, 4, 1, 2, 5, 3, 0})
	f.Add([]byte{40, 2, 0, 1, 2, 0, 2, 2, 0, 3, 2, 0, 4, 3, 0, 9, 4, 0, 0, 5, 1, 0, 3, 0, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 300 {
			return // at most 100 ops keeps an exec, and minimizing one, fast
		}
		c := NewPointerCache(runMax + 1 + int(ops[0])*4)
		model := newListLRU(c.cap)
		key := func(a, b byte) ident.ID {
			s := uint64(a)<<8 | uint64(b)
			return id64(sim.SplitMix64(&s))
		}
		for step, k := 0, 1; k+2 < len(ops); step, k = step+1, k+3 {
			op, a, b := ops[k], ops[k+1], ops[k+2]
			switch op % 6 {
			case 0, 1:
				p := Pointer{ID: key(a, b), Router: RouterID(op >> 4)}
				c.Insert(p)
				model.insert(p)
			case 2:
				for i := range 2 * runMax {
					p := Pointer{ID: key(a+byte(i), b^byte(i>>2)), Router: RouterID(i % 16)}
					c.Insert(p)
					model.insert(p)
				}
			case 3:
				checkLookup(t, step, c, model, key(a, b), key(b, a))
			case 4:
				if op&8 != 0 {
					removeBlock(c, model, key(a, b), int(op>>4)*8)
				} else {
					c.Remove(key(a, b))
					model.remove(key(a, b))
				}
			case 5:
				if got, want := c.RemoveRouter(RouterID(a%16)), model.removeRouter(RouterID(a%16)); got != want {
					t.Fatalf("step %d: RemoveRouter = %d, model %d", step, got, want)
				}
			}
			checkCache(t, step, c, model, true)
		}
	})
}

func benchFillIDs(n int) []ident.ID {
	rng := rand.New(rand.NewSource(42))
	ids := make([]ident.ID, n)
	for i := range ids {
		ids[i] = ident.Random(rng)
	}
	return ids
}

// BenchmarkCacheInsertAtCapacity measures steady-state inserts into a
// full cache, where every insert scans for the victim, at the largest
// capacity a driver fills (Fig 6a, Fig 8c: 1,000 entries).
func BenchmarkCacheInsertAtCapacity(b *testing.B) {
	const capacity = 1000
	c := NewPointerCache(capacity)
	for _, id := range benchFillIDs(capacity) {
		c.Insert(Pointer{ID: id, Router: 1})
	}
	fresh := benchFillIDs(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fresh[i&(1<<16-1)]
		id[0] = byte(i >> 16) // keep keys fresh so every insert evicts
		c.Insert(Pointer{ID: id, Router: 2})
	}
}

// BenchmarkCacheInsertGrowing measures inserts into a cache that never
// fills, the sim_vring_join case under the default 70,000-entry cap: each
// round grows a fresh cache to 2,000 entries, about what a core router
// of the benchmark ring holds, with the round's set-up off the timer.
func BenchmarkCacheInsertGrowing(b *testing.B) {
	const round = 2000
	ids := benchFillIDs(1 << 16)
	c := NewPointerCache(DefaultOptions().CacheCapacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%round == 0 && i > 0 {
			b.StopTimer()
			c = NewPointerCache(DefaultOptions().CacheCapacity)
			b.StartTimer()
		}
		c.Insert(Pointer{ID: ids[i&(1<<16-1)], Router: 1})
	}
}

func TestCacheStressSortedInvariant(t *testing.T) {
	c := NewPointerCache(64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			c.Insert(Pointer{ID: ident.Random(rng), Router: RouterID(rng.Intn(100))})
		case 2:
			c.Lookup(ident.Random(rng), ident.Random(rng))
		}
		if c.Len() > 64 {
			t.Fatal("capacity exceeded")
		}
	}
	var prev ident.ID
	first := true
	c.each(func(p Pointer) bool {
		if !first && !prev.Less(p.ID) {
			t.Fatal("entries out of order")
		}
		prev, first = p.ID, false
		return true
	})
}

// BenchmarkCacheLookupHit measures the forwarding-time cache probe at
// capacity: a binary search over the sorted entries plus the recency stamp.
func BenchmarkCacheLookupHit(b *testing.B) {
	const capacity = 1000
	c := NewPointerCache(capacity)
	ids := benchFillIDs(capacity)
	for _, id := range ids {
		c.Insert(Pointer{ID: id, Router: 1})
	}
	pos := ident.FromString("bench-pos")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Aim at a cached ID so the probe hits (self-distance is zero, so
		// a cached dst always satisfies Progress unless pos == dst).
		if _, ok := c.Lookup(pos, ids[i%capacity]); !ok {
			b.Fatal("expected hit")
		}
	}
}

// TestLookupSteadyStateAllocs pins the forwarding-time cache probe at
// zero allocations: neither the binary search nor the touch may
// allocate.
func TestLookupSteadyStateAllocs(t *testing.T) {
	const capacity = 512
	c := NewPointerCache(capacity)
	ids := benchFillIDs(capacity)
	for _, id := range ids {
		c.Insert(Pointer{ID: id, Router: 1})
	}
	pos := ident.FromString("alloc-pos")
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		c.Lookup(pos, ids[i%capacity])
		i++
	})
	if avg != 0 {
		t.Fatalf("PointerCache.Lookup allocates %v per op in steady state; want 0", avg)
	}
}
