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
}

// cacheEntry's lastUsed stamp is the only record of recency: the clock
// advances on every touch, so stamps are unique and the entry with the
// smallest one is the exact LRU victim.
type cacheEntry struct {
	Pointer
	lastUsed uint64
}

// NewPointerCache returns a cache bounded to capacity entries;
// capacity <= 0 disables caching entirely.
func NewPointerCache(capacity int) *PointerCache {
	return &PointerCache{cap: capacity}
}

// Len returns the number of cached pointers.
func (c *PointerCache) Len() int { return len(c.entries) }

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

// touch stamps entries[i] as most recently used.
func (c *PointerCache) touch(i int) {
	c.clock++
	c.entries[i].lastUsed = c.clock
}

// evictLRU drops the entry with the smallest stamp. The scan runs only
// on an insert into a full cache, and the capacities any driver fills
// are at most 1,000 entries (Fig 6a, Fig 8c).
func (c *PointerCache) evictLRU() {
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
func (c *PointerCache) Lookup(pos, dst ident.ID) (Pointer, bool) {
	i, ok := ident.Closest(len(c.entries), c.idAt, pos, dst)
	if !ok {
		return Pointer{}, false
	}
	c.touch(i)
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
