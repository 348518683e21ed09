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
// insert shifts one run, not the whole cache. Each run holds its IDs as
// ident.Columns, and so does the index over runs, keyed by each run's
// first ID: a lookup is two column floors of dst.
type PointerCache struct {
	cap   int
	n     int
	runs  ident.Columns[cacheRun] // every ID of a run precedes the next run's
	clock uint32
}

// runMax bounds a run: an insert shifts at most runMax-1 entries, and a
// full run splits in half.
const runMax = 64

// cacheRun is one sorted run, its two columns filling one block: a
// cacheBlock, or a firstBlock for a cache's first run.
type cacheRun = ident.Columns[cacheEntry]

// cacheEntry sits beside an entry's ID. Its lastUsed stamp is the only
// record of recency: the clock advances on every touch, so stamps are
// unique and the entry with the smallest one is the exact LRU victim.
// router holds a topology node index or, in canon's caches, an AS
// number; both fit in 32 bits.
type cacheEntry struct {
	router   int32
	lastUsed uint32
}

// cacheBlock is one run's storage, 24 B an entry: the high-word column,
// then each low word with its cacheEntry, in one allocation.
type cacheBlock struct {
	hi   [runMax]uint64
	rest [runMax]ident.Cell[cacheEntry]
}

func newRun() cacheRun {
	b := new(cacheBlock)
	return ident.ColumnsIn(b.hi[:], b.rest[:])
}

// firstBlock holds a cache's first run until it outgrows half a block:
// two routers in three on the benchmark ring cache fewer than 64 entries.
type firstBlock struct {
	hi   [runMax / 2]uint64
	rest [runMax / 2]ident.Cell[cacheEntry]
}

// testHookShift, nil outside tests, sees how many entries each Insert
// moved: the run's tail it shifted plus what a split or a first run's
// move to a cacheBlock copied.
var testHookShift func(moved int)

// NewPointerCache returns a cache bounded to capacity entries;
// capacity <= 0 disables caching entirely.
func NewPointerCache(capacity int) *PointerCache {
	return &PointerCache{cap: capacity}
}

// Len returns the number of cached pointers.
func (c *PointerCache) Len() int { return c.n }

// find returns the run and slot where id is or would be inserted.
func (c *PointerCache) find(id ident.ID) (r, i int, ok bool) {
	if c.runs.Len() == 0 {
		return 0, 0, false
	}
	k := id.Key()
	r, _ = c.runs.Find(k)
	r = max(r, 0)
	i, ok = c.runs.Val(r).Find(k)
	if !ok {
		i++
	}
	return r, i, ok
}

// has reports whether id is cached, without touching it.
func (c *PointerCache) has(id ident.ID) bool {
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
		s := c.runs.Val(r).Val(i)
		s.router = int32(p.Router)
		c.touch(s)
		return
	}
	if c.n >= c.cap {
		c.evictLRU()
		r, i, _ = c.find(p.ID)
	}
	if c.runs.Len() == 0 {
		b := new(firstBlock)
		c.runs.Insert(0, p.ID, ident.ColumnsIn(b.hi[:], b.rest[:]))
	}
	moved := 0
	switch run := c.runs.Val(r); run.Len() {
	case runMax:
		moved = c.split(r)
		if i > runMax/2 {
			r, i = r+1, i-runMax/2
		}
	case run.Cap(): // a first run outgrowing its firstBlock
		full := newRun()
		moved = run.Split(0, &full)
		*run = full
	}
	run := c.runs.Val(r)
	moved += run.Len() - i
	run.Insert(i, p.ID, cacheEntry{router: int32(p.Router)})
	if i == 0 {
		c.runs.Rekey(r, p.ID)
	}
	c.n++
	c.touch(run.Val(i))
	if testHookShift != nil {
		testHookShift(moved)
	}
}

// split moves the upper half of the full run r into a new run after it
// and returns the number of entries copied.
func (c *PointerCache) split(r int) int {
	upper := newRun()
	moved := c.runs.Val(r).Split(runMax/2, &upper)
	first, _ := upper.At(0)
	c.runs.Insert(r+1, first, upper)
	return moved
}

// touch stamps s as most recently used. Before the clock would pass
// 2^32 every stamp is replaced by its rank, which keeps their order.
func (c *PointerCache) touch(s *cacheEntry) {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	s.lastUsed = c.clock
}

// renumber rewrites the stamps as 1..Len in the order they had and
// restarts the clock after them.
func (c *PointerCache) renumber() {
	all := make([]*cacheEntry, 0, c.n)
	for _, run := range c.runs.All() {
		for i := range run.Len() {
			all = append(all, run.Val(i))
		}
	}
	slices.SortFunc(all, func(a, b *cacheEntry) int { return cmp.Compare(a.lastUsed, b.lastUsed) })
	for rank, s := range all {
		s.lastUsed = uint32(rank + 1)
	}
	c.clock = uint32(len(all))
}

// evictLRU drops the entry with the smallest stamp. The scan runs only
// on an insert into a full cache, and the capacities any driver fills
// are at most 1,000 entries (Fig 6a, Fig 8c).
func (c *PointerCache) evictLRU() {
	vr, vi, least := 0, 0, c.runs.Val(0).Val(0).lastUsed
	for r, run := range c.runs.All() {
		for i := range run.Len() {
			if s := run.Val(i); s.lastUsed < least {
				vr, vi, least = r, i, s.lastUsed
			}
		}
	}
	c.deleteAt(vr, vi)
}

// deleteAt drops slot i of run r, and the run if that empties it.
func (c *PointerCache) deleteAt(r, i int) {
	run := c.runs.Val(r)
	run.Delete(i)
	c.n--
	switch {
	case run.Len() == 0:
		c.runs.Delete(r)
	case i == 0:
		first, _ := run.At(0)
		c.runs.Rekey(r, first)
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
// pointers to IDs residing at unreachable routers"). It walks back from
// the last entry, so a deletion moves none it has still to read.
func (c *PointerCache) RemoveRouter(rt RouterID) int {
	before := c.n
	for r := c.runs.Len() - 1; r >= 0; r-- {
		run := c.runs.Val(r)
		for i := run.Len() - 1; i >= 0; i-- {
			if RouterID(run.Val(i).router) == rt {
				c.deleteAt(r, i)
			}
		}
	}
	return before - c.n
}

// Lookup returns the cached pointer closest to dst without overshooting,
// given current position pos, marking it recently used: ident.Closest
// over the two column floors. The floor of dst lies in the last run
// whose first ID is at most dst, or, when dst precedes them all, is the
// last entry of the last run.
func (c *PointerCache) Lookup(pos, dst ident.ID) (Pointer, bool) {
	n := c.runs.Len()
	if n == 0 {
		return Pointer{}, false
	}
	k := dst.Key()
	r, _ := c.runs.Find(k)
	if r < 0 {
		r = n - 1
	}
	run := c.runs.Val(r)
	i, _ := run.Find(k)
	if i < 0 {
		i = run.Len() - 1
	}
	id, s := run.At(i)
	if !ident.Progress(pos, dst, id) {
		return Pointer{}, false
	}
	c.touch(run.Val(i))
	return Pointer{ID: id, Router: RouterID(s.router)}, true
}

// each returns every cached pointer in ascending ID order (for memory
// accounting and invalidation sweeps). Callers must not mutate the
// cache from fn.
func (c *PointerCache) each(fn func(Pointer) bool) {
	for _, run := range c.runs.All() {
		for i := range run.Len() {
			id, s := run.At(i)
			if !fn(Pointer{ID: id, Router: RouterID(s.router)}) {
				return
			}
		}
	}
}
