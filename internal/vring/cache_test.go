package vring

import (
	"container/list"
	"math/rand"
	"testing"

	"rofl/internal/ident"
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
	c.Each(func(p Pointer) bool {
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

// The min-stamp scan must keep exactly the entries a list-ordered LRU
// keeps, under a workload mixing inserts, updates, lookups (which touch),
// removals and router invalidations.
func TestCacheEvictionMatchesLinearScanModel(t *testing.T) {
	const capacity = 24
	c := NewPointerCache(capacity)
	model := newListLRU(capacity)
	rng := rand.New(rand.NewSource(11))
	key := func() ident.ID { return id64(uint64(rng.Intn(3 * capacity))) } // small keyspace so updates and evictions mix
	evictions := 0
	for step := 0; step < 8000; step++ {
		switch rng.Intn(20) {
		case 0, 1:
			id := key()
			c.Remove(id)
			model.remove(id)
		case 2:
			r := RouterID(rng.Intn(50))
			if got, want := c.RemoveRouter(r), model.removeRouter(r); got != want {
				t.Fatalf("step %d: RemoveRouter(%d) = %d, model %d", step, r, got, want)
			}
		case 3, 4, 5:
			if p, ok := c.Lookup(key(), key()); ok {
				model.touch(p.ID)
			}
		default:
			p := Pointer{ID: key(), Router: RouterID(rng.Intn(50))}
			if _, known := model.byID[p.ID]; !known && c.Len() == capacity {
				evictions++
			}
			c.Insert(p)
			model.insert(p)
		}
		if c.Len() != len(model.byID) {
			t.Fatalf("step %d: len %d != model %d", step, c.Len(), len(model.byID))
		}
		c.Each(func(p Pointer) bool {
			if e, ok := model.byID[p.ID]; !ok || e.Value.(Pointer) != p {
				t.Fatalf("step %d: cache holds %v, model does not", step, p)
			}
			return true
		})
	}
	if evictions < 1000 {
		t.Fatalf("only %d inserts evicted; the workload no longer exercises eviction", evictions)
	}
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
	c.Each(func(p Pointer) bool {
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
