package vring

import (
	"rofl/internal/ident"
	"rofl/internal/topology"
)

// Pointer is one entry of ROFL routing state: a flat label and the
// router currently hosting it. Forwarding resolves the router to a
// physical next hop through the link-state map (§3.3: "using the
// link-state database to return the next hop towards the router
// containing that ID").
type Pointer struct {
	ID     ident.ID
	Router RouterID
}

// RouterID aliases the topology node index of a router.
type RouterID = topology.NodeID

// PointerCache is the bounded cache of overheard pointers each router
// keeps (§2.2 "the pointer-cache of routers is limited in size, and
// precedence is given to [ring pointers]"). Ring pointers (successors,
// predecessors) are *not* stored here — they live on virtual nodes and
// always win precedence; the cache only holds opportunistically learned
// shortcuts, evicted LRU when capacity is reached.
type PointerCache struct {
	cap     int
	entries []cacheEntry // ascending by ID
	clock   uint64
	hits    int64
	misses  int64
	// lru is a min-heap of (stamp, id) touch records with lazy
	// invalidation: every Insert/Lookup touch pushes a record, and
	// eviction pops until the top record still matches a live entry's
	// latest stamp. Stale records (superseded touches, removed entries)
	// are discarded on pop, and the heap is rebuilt from the live
	// entries when staleness accumulates, so a steady-state insert costs
	// O(log cap) amortized instead of the O(cap) scan it replaced.
	lru lruHeap
}

type cacheEntry struct {
	Pointer
	lastUsed uint64
}

type lruRecord struct {
	stamp uint64
	id    ident.ID
}

// lruHeap is a hand-rolled min-heap on stamp. container/heap would box
// every pushed lruRecord into an interface{}, costing one allocation
// per cache touch on the forwarding hot path; the monomorphic methods
// below keep Lookup and Insert allocation-free in steady state.
type lruHeap []lruRecord

func (h *lruHeap) push(r lruRecord) {
	*h = append(*h, r)
	// Sift up.
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].stamp <= s[i].stamp {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *lruHeap) pop() lruRecord {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].stamp < s[min].stamp {
			min = l
		}
		if r < n && s[r].stamp < s[min].stamp {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// NewPointerCache returns a cache bounded to capacity entries;
// capacity <= 0 disables caching entirely.
func NewPointerCache(capacity int) *PointerCache {
	return &PointerCache{cap: capacity}
}

// Len returns the number of cached pointers.
func (c *PointerCache) Len() int { return len(c.entries) }

// Cap returns the configured capacity.
func (c *PointerCache) Cap() int { return c.cap }

// HitRate returns the fraction of Lookup calls that returned a pointer.
func (c *PointerCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// idAt reads the sorted entries for ident's searches.
func (c *PointerCache) idAt(k int) *ident.ID { return &c.entries[k].ID }

func (c *PointerCache) find(id ident.ID) (int, bool) {
	i := ident.Search(len(c.entries), c.idAt, id)
	return i, i < len(c.entries) && c.entries[i].ID == id
}

// Insert records a pointer, updating the router of an existing entry or
// evicting the least-recently-used one at capacity.
func (c *PointerCache) Insert(p Pointer) {
	if c.cap <= 0 {
		return
	}
	if i, ok := c.find(p.ID); ok {
		c.entries[i].Router = p.Router
		c.touch(i)
		return
	}
	if len(c.entries) >= c.cap {
		c.evictLRU()
	}
	i, _ := c.find(p.ID)
	c.entries = append(c.entries, cacheEntry{})
	copy(c.entries[i+1:], c.entries[i:])
	c.entries[i] = cacheEntry{Pointer: p}
	c.touch(i)
}

// touch stamps entries[i] as most recently used and records the touch in
// the LRU heap. Stamps are unique (the clock advances on every touch),
// so heap order — and therefore eviction order — is deterministic.
func (c *PointerCache) touch(i int) {
	c.clock++
	c.entries[i].lastUsed = c.clock
	c.lru.push(lruRecord{stamp: c.clock, id: c.entries[i].ID})
	if len(c.lru) > 4*c.cap+8 {
		c.rebuildLRU()
	}
}

// rebuildLRU compacts the heap to one record per live entry, bounding
// the staleness accumulated by superseded touches and removals.
func (c *PointerCache) rebuildLRU() {
	c.lru = c.lru[:0]
	for _, e := range c.entries {
		c.lru = append(c.lru, lruRecord{stamp: e.lastUsed, id: e.ID})
	}
	// Establish the heap invariant bottom-up (what heap.Init does).
	s := c.lru
	for i := len(s)/2 - 1; i >= 0; i-- {
		j := i
		for {
			l, r := 2*j+1, 2*j+2
			min := j
			if l < len(s) && s[l].stamp < s[min].stamp {
				min = l
			}
			if r < len(s) && s[r].stamp < s[min].stamp {
				min = r
			}
			if min == j {
				break
			}
			s[j], s[min] = s[min], s[j]
			j = min
		}
	}
}

func (c *PointerCache) evictLRU() {
	for len(c.lru) > 0 {
		top := c.lru.pop()
		if i, ok := c.find(top.id); ok && c.entries[i].lastUsed == top.stamp {
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			return
		}
	}
	// Unreachable while every touch pushes a record (each live entry's
	// latest stamp is always in the heap); kept as a safety net.
	if len(c.entries) == 0 {
		return
	}
	victim := 0
	for i := 1; i < len(c.entries); i++ {
		if c.entries[i].lastUsed < c.entries[victim].lastUsed {
			victim = i
		}
	}
	c.entries = append(c.entries[:victim], c.entries[victim+1:]...)
}

// Remove drops the entry for id if present.
func (c *PointerCache) Remove(id ident.ID) {
	if i, ok := c.find(id); ok {
		c.entries = append(c.entries[:i], c.entries[i+1:]...)
	}
}

// RemoveRouter drops every entry pointing at the given router — the
// reaction to a link-state advertisement reporting it unreachable
// (§3.2: "routers also monitor link-state advertisements and delete
// pointers to IDs residing at unreachable routers").
func (c *PointerCache) RemoveRouter(r RouterID) int {
	kept := c.entries[:0]
	removed := 0
	for _, e := range c.entries {
		if e.Router == r {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	c.entries = kept
	return removed
}

// Lookup returns the cached pointer closest to dst without overshooting,
// given current position pos, marking it recently used.
//
//rofllint:hotpath
func (c *PointerCache) Lookup(pos, dst ident.ID) (Pointer, bool) {
	i, ok := ident.Closest(len(c.entries), c.idAt, pos, dst)
	if !ok {
		c.misses++
		return Pointer{}, false
	}
	c.touch(i)
	c.hits++
	return c.entries[i].Pointer, true
}

// Each returns every cached pointer in ascending ID order (for memory
// accounting and invalidation sweeps). Callers must not mutate entries
// through it.
func (c *PointerCache) Each(fn func(Pointer) bool) {
	for _, e := range c.entries {
		if !fn(e.Pointer) {
			return
		}
	}
}
