package vring

import (
	"cmp"
	"math"
	"slices"

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
//
// The entries are kept ascending by ID in runs of at most runMax, so an
// insert shifts one run, not the whole cache.
type PointerCache struct {
	cap   int
	n     int
	runs  []cacheRun // ascending: every ID of runs[k] precedes runs[k+1]'s
	clock uint32
}

// runMax bounds a run: an insert shifts at most runMax-1 entries, and a
// full run splits in half.
const runMax = 64

// cacheRun is one sorted run; first is e[0].ID, kept beside the slice
// so the search over runs reads one array.
type cacheRun struct {
	first ident.ID
	e     []cacheEntry
}

// cacheEntry's lastUsed stamp is the only record of recency: the clock
// advances on every touch, so stamps are unique and the entry with the
// smallest one is the exact LRU victim. router holds a topology node
// index or, in canon's caches, an AS number; both fit in 32 bits.
type cacheEntry struct {
	ID       ident.ID
	router   int32
	lastUsed uint32
}

func (e *cacheEntry) pointer() Pointer { return Pointer{ID: e.ID, Router: RouterID(e.router)} }

// testHookShift, nil outside tests, sees how many entries each Insert
// moved: the run's tail it shifted plus the half a split copied.
var testHookShift func(moved int)

// NewPointerCache returns a cache bounded to capacity entries;
// capacity <= 0 disables caching entirely.
func NewPointerCache(capacity int) *PointerCache {
	return &PointerCache{cap: capacity}
}

// Len returns the number of cached pointers.
func (c *PointerCache) Len() int { return c.n }

// firstAt and idAt feed ident's searches over runs and within one.
func (c *PointerCache) firstAt(k int) *ident.ID { return &c.runs[k].first }
func (r *cacheRun) idAt(k int) *ident.ID        { return &r.e[k].ID }

// find returns the run and slot where id is or would be inserted.
func (c *PointerCache) find(id ident.ID) (r, i int, ok bool) {
	if len(c.runs) == 0 {
		return 0, 0, false
	}
	r = max(ident.Floor(len(c.runs), c.firstAt, id), 0)
	run := &c.runs[r]
	i = ident.Search(len(run.e), run.idAt, id)
	return r, i, i < len(run.e) && run.e[i].ID == id
}

// Has reports whether id is cached, without touching it.
func (c *PointerCache) Has(id ident.ID) bool {
	_, _, ok := c.find(id)
	return ok
}

// Insert records a pointer, updating the router of an existing entry or
// evicting the least-recently-used one at capacity.
func (c *PointerCache) Insert(p Pointer) {
	if c.cap <= 0 {
		return
	}
	r, i, ok := c.find(p.ID)
	if ok {
		e := &c.runs[r].e[i]
		e.router = int32(p.Router)
		c.touch(e)
		return
	}
	if c.n >= c.cap {
		c.evictLRU()
		r, i, _ = c.find(p.ID)
	}
	if len(c.runs) == 0 {
		c.runs = append(c.runs, cacheRun{})
	}
	moved := 0
	if len(c.runs[r].e) == runMax {
		moved = c.split(r)
		if i > runMax/2 {
			r, i = r+1, i-runMax/2
		}
	}
	run := &c.runs[r]
	run.e = append(run.e, cacheEntry{})
	moved += copy(run.e[i+1:], run.e[i:])
	run.e[i] = cacheEntry{ID: p.ID, router: int32(p.Router)}
	if i == 0 {
		run.first = p.ID
	}
	c.n++
	c.touch(&run.e[i])
	if testHookShift != nil {
		testHookShift(moved)
	}
}

// split moves the upper half of the full run r into a new run after it
// and returns the number of entries copied.
func (c *PointerCache) split(r int) int {
	const h = runMax / 2
	old := c.runs[r].e
	upper := make([]cacheEntry, runMax-h, runMax)
	copy(upper, old[h:])
	c.runs[r].e = old[:h]
	c.runs = slices.Insert(c.runs, r+1, cacheRun{first: upper[0].ID, e: upper})
	return len(upper)
}

// touch stamps e as most recently used. Before the clock would pass
// 2^32 every stamp is replaced by its rank, which keeps their order.
func (c *PointerCache) touch(e *cacheEntry) {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	e.lastUsed = c.clock
}

// renumber rewrites the stamps as 1..Len in the order they had and
// restarts the clock after them.
func (c *PointerCache) renumber() {
	all := make([]*cacheEntry, 0, c.n)
	for k := range c.runs {
		for i := range c.runs[k].e {
			all = append(all, &c.runs[k].e[i])
		}
	}
	slices.SortFunc(all, func(a, b *cacheEntry) int { return cmp.Compare(a.lastUsed, b.lastUsed) })
	for rank, e := range all {
		e.lastUsed = uint32(rank + 1)
	}
	c.clock = uint32(len(all))
}

// evictLRU drops the entry with the smallest stamp. The scan runs only
// on an insert into a full cache, and the capacities any driver fills
// are at most 1,000 entries (Fig 6a, Fig 8c).
func (c *PointerCache) evictLRU() {
	vr, vi := 0, 0
	for r := range c.runs {
		for i := range c.runs[r].e {
			if c.runs[r].e[i].lastUsed < c.runs[vr].e[vi].lastUsed {
				vr, vi = r, i
			}
		}
	}
	c.deleteAt(vr, vi)
}

// deleteAt drops slot i of run r, and the run if that empties it.
func (c *PointerCache) deleteAt(r, i int) {
	run := &c.runs[r]
	run.e = append(run.e[:i], run.e[i+1:]...)
	c.n--
	switch {
	case len(run.e) == 0:
		c.runs = slices.Delete(c.runs, r, r+1)
	case i == 0:
		run.first = run.e[0].ID
	}
}

// Remove drops the entry for id if present.
func (c *PointerCache) Remove(id ident.ID) {
	if r, i, ok := c.find(id); ok {
		c.deleteAt(r, i)
	}
}

// RemoveRouter drops every entry pointing at the given router — the
// reaction to a link-state advertisement reporting it unreachable
// (§3.2: "routers also monitor link-state advertisements and delete
// pointers to IDs residing at unreachable routers").
func (c *PointerCache) RemoveRouter(r RouterID) int {
	keptRuns := c.runs[:0]
	removed := 0
	for _, run := range c.runs {
		kept := run.e[:0]
		for _, e := range run.e {
			if RouterID(e.router) == r {
				removed++
				continue
			}
			kept = append(kept, e)
		}
		if len(kept) > 0 {
			keptRuns = append(keptRuns, cacheRun{first: kept[0].ID, e: kept})
		}
	}
	clear(c.runs[len(keptRuns):])
	c.runs = keptRuns
	c.n -= removed
	return removed
}

// Lookup returns the cached pointer closest to dst without overshooting,
// given current position pos, marking it recently used. The floor of dst
// lies in the last run whose first ID is at most dst, or, when dst
// precedes them all, is the last entry of the last run.
func (c *PointerCache) Lookup(pos, dst ident.ID) (Pointer, bool) {
	if len(c.runs) == 0 {
		return Pointer{}, false
	}
	r := ident.Floor(len(c.runs), c.firstAt, dst)
	if r < 0 {
		r = len(c.runs) - 1
	}
	run := &c.runs[r]
	i, ok := ident.Closest(len(run.e), run.idAt, pos, dst)
	if !ok {
		return Pointer{}, false
	}
	c.touch(&run.e[i])
	return run.e[i].pointer(), true
}

// Each returns every cached pointer in ascending ID order (for memory
// accounting and invalidation sweeps). Callers must not mutate entries
// through it.
func (c *PointerCache) Each(fn func(Pointer) bool) {
	for k := range c.runs {
		for i := range c.runs[k].e {
			if !fn(c.runs[k].e[i].pointer()) {
				return
			}
		}
	}
}
