package sim

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// This file extends the discrete-event substrate from parallel *trials*
// (ForEach, one independent seed per trial) to a
// parallel *single network*: one simulated system whose nodes are
// sharded across per-core workers, exchanging events at virtual-clock
// barriers, with results provably independent of the shard count.
//
// The design is a conservative (lookahead-based) parallel discrete-event
// simulation specialized to the actor model the ring protocols already
// fit:
//
//   - A node is a dense uint32 handle (ident.Handle by convention).
//     All mutable protocol state is owned by exactly one node, and a
//     node is owned by exactly one shard, so no locks are needed.
//   - Events are plain value Msgs — no closures, no pointers. A shard
//     files each event under its window: one at most ringSpan windows
//     past the open one is stored once in the shard's slab, its slot
//     appended unsorted to that window's bucket. An unsorted overflow
//     list holds the rest, the events beyond the ring's reach, and is
//     re-filed as windows open and bring them within reach. When a
//     window opens its bucket is counting-sorted by affinity group,
//     each group's run then sorted by its own key, so the order an
//     event was filed in never shows. Slab, buckets, overflow, the
//     sort's count and scratch arrays and the outboxes reuse their
//     backing arrays for the lifetime of the run, so after warm-up the
//     event loop performs no allocation (TestShardedSteadyStateAllocs
//     guards the Send, filing, sort and read path).
//   - Lookahead is a power of two, and every Send takes at least
//     Lookahead virtual time, a self-timer as much as a message to
//     another node. The run advances in windows of Lookahead, with a
//     barrier between windows at which shards exchange outboxes. An
//     event sent in window k is therefore always delivered in window
//     k+1 or later: no shard receives an event in its past, nor one in
//     the window it is reading. With a power-of-two Lookahead every
//     barrier and every quotient At/Lookahead is exact, so the float
//     sum Now+delay never rounds back into the window being read.
//   - Messages carry a (Src, Seq) pair — Seq from a per-node send
//     counter — and each shard reads a window one affinity group at a
//     time, each group in (At, Src, Seq) order, a total order
//     independent of sharding. Nodes that share a resource share an
//     affinity key and so a group, and a handler touches only its
//     node's state, so nothing observes the order across groups. A node
//     and every resource therefore see exactly the same delivery
//     sequence at any shard count, which is what makes merged metrics,
//     final state, and the sorted journal byte-identical for 1, 2, or
//     64 shards.

// Msg is one simulated event: a message between nodes, or a self-timer
// when Src == Dst. It is a pure value — the event slab, overflow and
// cross-shard outboxes are flat []Msg arrays, never per-event
// allocations.
//
// Kind, Hop and Args are opaque to the engine; the Handler gives them
// meaning. Args is sized for a ROFL successor-group advertisement
// (up to 4 pointer handles).
type Msg struct {
	At   Time   // delivery time; filled by Send/Prime
	Src  uint32 // sending node (timers: the node itself)
	Dst  uint32 // receiving node; its owner shard processes the event
	Seq  uint64 // per-Src send counter; (Src, Seq) is unique
	Kind uint16 // handler-defined discriminator
	Hop  uint16 // free for handler use (TTLs, round numbers)
	Args [4]uint32
	grp  uint32 // Dst's affinity group, filled by Send/Prime; fits the tail padding, so Msg stays 48 B
}

// Handler processes one delivered event. Implementations must only
// touch state owned by m.Dst (plus shard-private sinks reachable
// through sc) and must derive any randomness from per-node state — the
// two rules that make runs shard-count invariant.
type Handler interface {
	HandleMsg(sc *ShardContext, m Msg)
}

// JournalEntry is one handler-recorded protocol transition. Entries
// sort by (At, Src, Seq, Sub) — the total order every group's events are
// processed in — so the merged journal of a sharded run is
// byte-identical to the single-shard run.
type JournalEntry struct {
	At   Time
	Src  uint32
	Seq  uint64
	Sub  uint32 // ordinal within one handled message
	Kind uint16
	Node uint32
	A, B uint32
}

// ShardContext is the per-shard execution context handed to the
// Handler: the shard's private metrics sink, its event queue and
// outboxes, and the key of the message being handled. One context is
// touched by exactly one worker at a time.
type ShardContext struct {
	// Metrics is the shard-private sink. MergedMetrics folds the sinks
	// in shard order after the run.
	Metrics Metrics

	eng   *ShardedEngine
	shard int
	now   Time

	// Key of the message currently being handled; journal entries
	// recorded while handling it inherit the key so the merged journal
	// reproduces processing order.
	curAt  Time
	curSrc uint32
	curSeq uint64
	sub    uint32

	// The event queue. open is the window being read (-1 before Run).
	// An event 1 to ringSpan windows past it sits in slab, its slot in
	// ring[window%len(ring)], and bit window%len(ring) of full is set
	// while that bucket is non-empty; pool holds drained bucket arrays.
	// Every other event waits in overflow, unsorted, farMin the earliest
	// window there; overflowed counts the events that left it for a
	// bucket. count (one per group) and scratch are the group sort's.
	open       int64
	slab       []Msg
	free       []uint32 // slab slots free for reuse
	ring       [ringSpan + 1][]uint32
	full       uint64
	pool       [][]uint32
	overflow   []Msg
	farMin     int64
	overflowed int64
	count      []int32
	scratch    []uint32

	outbox  [][]Msg // per-destination-shard send buffers, reused
	journal []JournalEntry
	events  int64 // messages handled by this shard
}

// ringSpan is how many windows past the open one a shard's bucket ring
// reaches. The ring has a slot for each window from the open one to
// ringSpan past it, so no slot ever holds two windows' events.
const ringSpan = 63

// Now returns the virtual time of the event being handled.
func (sc *ShardContext) Now() Time { return sc.now }

// Shard returns this context's shard index.
func (sc *ShardContext) Shard() int { return sc.shard }

// Send schedules m after delay. m.Src must be a node owned by this
// shard (its own per-node send counter provides the Seq). Every delay is
// clamped to at least the engine's Lookahead — self-timers too, and
// whether or not the destination lives on the same shard — so an event
// never lands in the window being read, and timing never depends on the
// node→shard assignment. The window being read starts at or before now,
// and now+delay rounds to no less than the exact barrier that ends it.
func (sc *ShardContext) Send(delay Time, m Msg) {
	e := sc.eng
	if delay < e.lookahead {
		delay = e.lookahead
	}
	m.At = sc.now + delay
	m.Seq = e.seqOf[m.Src]
	e.seqOf[m.Src]++
	d := e.route(&m)
	if d == sc.shard {
		sc.enqueue(m)
		return
	}
	sc.outbox[d] = append(sc.outbox[d], m)
}

// enqueue files m under its window, which is past the open one: into
// the bucket ring when it is at most ringSpan past, else into the
// overflow list.
func (sc *ShardContext) enqueue(m Msg) {
	w := sc.eng.windowOf(m.At)
	if w-sc.open > ringSpan {
		if len(sc.overflow) == 0 || w < sc.farMin {
			sc.farMin = w
		}
		sc.overflow = append(sc.overflow, m)
		return
	}
	var slot uint32
	if n := len(sc.free); n > 0 {
		slot = sc.free[n-1]
		sc.free = sc.free[:n-1]
		sc.slab[slot] = m
	} else {
		slot = uint32(len(sc.slab))
		sc.slab = append(sc.slab, m)
	}
	i := w & ringSpan
	b := sc.ring[i]
	if b == nil {
		if n := len(sc.pool); n > 0 {
			b = sc.pool[n-1]
			sc.pool = sc.pool[:n-1]
		}
	}
	sc.ring[i] = append(b, slot)
	sc.full |= 1 << i
}

// nextWindow returns the earliest window this shard holds an event in.
func (sc *ShardContext) nextWindow() (int64, bool) {
	var w int64
	ok := sc.full != 0
	if ok {
		// Rotate the open window's successor slot to bit 0: the first set
		// bit is the nearest non-empty bucket.
		first := bits.RotateLeft64(sc.full, -int((sc.open+1)&ringSpan))
		w = sc.open + 1 + int64(bits.TrailingZeros64(first))
	}
	if len(sc.overflow) > 0 && (!ok || sc.farMin < w) {
		w, ok = sc.farMin, true
	}
	return w, ok
}

// Journal records one protocol transition keyed to the message being
// handled. It is a no-op unless the engine's journal was enabled —
// million-node runs keep it off; the shard-invariance tests turn it on.
func (sc *ShardContext) Journal(kind uint16, node, a, b uint32) {
	if !sc.eng.journalOn {
		return
	}
	sc.journal = append(sc.journal, JournalEntry{
		At: sc.curAt, Src: sc.curSrc, Seq: sc.curSeq, Sub: sc.sub,
		Kind: kind, Node: node, A: a, B: b,
	})
	sc.sub++
}

// runWindow opens window w, which no shard holds an earlier event than,
// and processes its events: the overflow's events the ring now reaches
// are filed into it, and w's bucket is read in (group, At, Src, Seq)
// order. Its handlers' sends all land in later windows.
func (sc *ShardContext) runWindow(w int64, h Handler) {
	sc.open = w - 1 // so that enqueue files the overflow's events for w under w
	if len(sc.overflow) > 0 && sc.farMin-sc.open <= ringSpan {
		far := sc.overflow
		sc.overflow = far[:0] // enqueue writes back no faster than the loop reads
		for _, m := range far {
			sc.enqueue(m)
		}
		sc.overflowed += int64(len(far) - len(sc.overflow))
	}
	sc.open = w
	i := w & ringSpan
	b := sc.sortByGroup(sc.ring[i])
	sc.ring[i] = nil
	sc.full &^= 1 << i
	for _, slot := range b {
		m := sc.slab[slot]
		sc.free = append(sc.free, slot)
		sc.now = m.At
		sc.curAt, sc.curSrc, sc.curSeq, sc.sub = m.At, m.Src, m.Seq, 0
		h.HandleMsg(sc, m)
		sc.events++
	}
	if b != nil {
		sc.pool = append(sc.pool, b[:0])
	}
}

// sortByGroup returns b's slots in (group, At, Src, Seq) order: a
// counting sort by group into the scratch array, then sortSlots on each
// group's run. b's array becomes the next window's scratch.
func (sc *ShardContext) sortByGroup(b []uint32) []uint32 {
	if len(b) == 0 {
		return b
	}
	count := sc.count
	for _, s := range b {
		count[sc.slab[s].grp]++
	}
	start := int32(0)
	for g, n := range count {
		count[g], start = start, start+n
	}
	out := slices.Grow(sc.scratch[:0], len(b))[:len(b)]
	for _, s := range b {
		g := sc.slab[s].grp
		out[count[g]] = s
		count[g]++
	}
	lo := int32(0)
	for g, end := range count {
		if n := int(end - lo); n > 0 {
			if testHookSortRun != nil {
				testHookSortRun(n)
			}
			sortSlots(out[lo:end], sc.slab, 2*bits.Len(uint(n)))
		}
		lo, count[g] = end, 0
	}
	sc.scratch = b[:0]
	return out
}

// testHookSortRun, nil outside tests, is called with the length of each
// run sortByGroup hands to sortSlots.
var testHookSortRun func(n int)

// ShardedEngine coordinates the windows and barriers of one sharded
// single-network run. Construct with NewSharded, seed initial events
// with Prime, then Run. The engine is not reusable after Run returns.
type ShardedEngine struct {
	handler   Handler
	shards    []*ShardContext
	nshards   int
	lookahead Time
	affinity  []uint32
	grpShift  uint     // a node's group is its affinity key >> grpShift
	seqOf     []uint64 // per-node send counters; only the owner shard touches a node's slot
	journalOn bool
	now       Time
}

// NewSharded builds an engine for nodes dense handles [0, nodes) split
// across the given number of shards. lookahead is the minimum delay of
// every Send and the barrier window length; it must be a power of two
// (1, 0.25, 4, …), so that window arithmetic is exact, and NewSharded
// panics on any other value.
//
// affinity optionally groups nodes: node n is owned by shard
// affinity[n] % shards (nil means n % shards). Grouping every node that
// shares a mutable resource — e.g. all virtual nodes hosted by one
// router, sharing its pointer cache — onto one affinity key keeps that
// resource shard-private at every shard count, which is what lets
// handlers touch it without locks and without breaking invariance. A
// window is read one group at a time, a group being the keys that agree
// above their low grpShift bits: at most maxGroups groups.
func NewSharded(nodes, shards int, lookahead Time, affinity []uint32, h Handler) *ShardedEngine {
	shards = max(shards, 1)
	if frac, _ := math.Frexp(float64(lookahead)); frac != 0.5 {
		panic("sim: Lookahead must be a power of two")
	}
	e := &ShardedEngine{
		handler:   h,
		nshards:   shards,
		lookahead: lookahead,
		affinity:  affinity,
		seqOf:     make([]uint64, nodes),
	}
	maxKey := uint32(max(nodes-1, 0))
	if len(affinity) > 0 {
		maxKey = slices.Max(affinity)
	}
	for maxKey>>e.grpShift >= maxGroups {
		e.grpShift++
	}
	e.shards = make([]*ShardContext, shards)
	for s := range e.shards {
		sc := &ShardContext{Metrics: NewMetrics(), eng: e, shard: s, open: -1}
		sc.outbox = make([][]Msg, shards)
		sc.count = make([]int32, maxKey>>e.grpShift+1)
		e.shards[s] = sc
	}
	return e
}

// maxGroups bounds the groups a window is read in, and so the count
// array each window's group sort walks.
const maxGroups = 1024

// route fills in m's group and returns the shard that owns m.Dst.
func (e *ShardedEngine) route(m *Msg) int {
	a := m.Dst
	if e.affinity != nil {
		a = e.affinity[m.Dst]
	}
	m.grp = a >> e.grpShift
	return int(a % uint32(e.nshards))
}

// barrier returns the end of window w: an event is in window w when its
// At is below barrier(w) and not below barrier(w-1).
func (e *ShardedEngine) barrier(w int64) Time { return Time(w+1) * e.lookahead }

// windowOf returns the window at falls in. Dividing by a power of two is
// exact, so the quotient never rounds across a barrier.
func (e *ShardedEngine) windowOf(at Time) int64 { return int64(at / e.lookahead) }

// EnableJournal turns on transition journaling (off by default: a
// million-node run would record tens of millions of entries).
func (e *ShardedEngine) EnableJournal() { e.journalOn = true }

// Prime enqueues an initial event before Run, directly into the owner
// shard's queue. No window is open yet, so a self-timer keeps any delay
// of at least 0; a message to another node is clamped to Lookahead, as
// in Send. Prime must not be called after Run has started.
func (e *ShardedEngine) Prime(delay Time, m Msg) {
	if delay < 0 {
		delay = 0
	}
	if m.Dst != m.Src && delay < e.lookahead {
		delay = e.lookahead
	}
	m.At = delay
	m.Seq = e.seqOf[m.Src]
	e.seqOf[m.Src]++
	e.shards[e.route(&m)].enqueue(m)
}

// Run drains every shard to quiescence and returns the final barrier
// time. Windows advance in multiples of Lookahead; empty stretches of
// virtual time are skipped in one step. Within a window the shards run
// in parallel across the worker pool; between windows the engine
// sequentially drains every outbox into the destination queues (the
// order is irrelevant to the result — a window is read by group, each
// group in the total (At, Src, Seq) key — but draining serially keeps
// the exchange race-free by construction). A drained run releases every
// queue, sort and outbox array: nothing reads them again.
func (e *ShardedEngine) Run() Time {
	for {
		w, ok := e.minPending()
		if !ok {
			for _, sc := range e.shards {
				// Each bucket left the ring for the pool when its window
				// opened.
				sc.slab, sc.free, sc.pool = nil, nil, nil
				sc.overflow, sc.outbox = nil, nil
				sc.count, sc.scratch = nil, nil
			}
			return e.now
		}
		ForEach(e.nshards, e.nshards, func(s int) {
			e.shards[s].runWindow(w, e.handler)
		})
		e.exchange()
		e.now = e.barrier(w)
	}
}

// exchange drains every shard's outboxes into the destination queues.
func (e *ShardedEngine) exchange() {
	for _, dst := range e.shards {
		for _, src := range e.shards {
			box := src.outbox[dst.shard]
			for i := range box {
				dst.enqueue(box[i])
			}
			src.outbox[dst.shard] = box[:0]
		}
	}
}

// minPending returns the earliest window any shard holds an event in.
func (e *ShardedEngine) minPending() (int64, bool) {
	var min int64
	found := false
	for _, sc := range e.shards {
		if w, ok := sc.nextWindow(); ok && (!found || w < min) {
			min, found = w, true
		}
	}
	return min, found
}

// Events returns the number of messages handled so far, summed over
// shards; each is handled once, by its owner, at any shard count.
func (e *ShardedEngine) Events() (n int64) {
	for _, sc := range e.shards {
		n += sc.events
	}
	return n
}

// OverflowEvents returns how many events waited in the overflow list
// before a window bucket took them, summed over shards: those filed more
// than ringSpan windows past the open one.
func (e *ShardedEngine) OverflowEvents() (n int64) {
	for _, sc := range e.shards {
		n += sc.overflowed
	}
	return n
}

// MergedMetrics folds the per-shard sinks into a fresh Metrics in shard
// order. Counter totals and sample multisets are shard-count invariant;
// sample *order* within a set is not, and every consumer (Summarize,
// Quantile) sorts first, as Metrics.Merge documents.
func (e *ShardedEngine) MergedMetrics() Metrics {
	m := NewMetrics()
	for _, sc := range e.shards {
		m.Merge(sc.Metrics)
	}
	return m
}

// Journal returns every recorded transition sorted by (At, Src, Seq,
// Sub) — each group's processing order, made global — so the rendered
// journal of a run is byte-identical at any shard count.
func (e *ShardedEngine) Journal() []JournalEntry {
	var out []JournalEntry
	for _, sc := range e.shards {
		out = append(out, sc.journal...)
	}
	slices.SortFunc(out, func(a, b JournalEntry) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Sub, b.Sub))
	})
	return out
}

// SplitMix64 advances a per-node PRNG state and returns the next 64
// random bits (Steele et al.'s splitmix64). One uint64 of state per
// node replaces a rand.Rand per node (~5 KB each — 5 GB at a million
// nodes); handlers use it for jitter and sampling so that randomness is
// a pure function of the node's seed and message history, independent
// of sharding.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sortSlots sorts one group's run of a bucket's slab slots by their
// messages' (At, Src, Seq) key: a quicksort with the key compare inlined,
// handing a range to the library sort when its partitions keep coming
// out lopsided.
func sortSlots(b []uint32, slab []Msg, depth int) {
	for len(b) > 12 {
		if depth == 0 {
			slices.SortFunc(b, func(x, y uint32) int {
				if x == y {
					return 0
				}
				if msgLess(&slab[x], &slab[y]) {
					return -1
				}
				return 1 // (Src, Seq) is unique
			})
			return
		}
		depth--
		mid, last := len(b)/2, len(b)-1
		if msgLess(&slab[b[mid]], &slab[b[0]]) {
			b[mid], b[0] = b[0], b[mid]
		}
		if msgLess(&slab[b[last]], &slab[b[mid]]) {
			b[last], b[mid] = b[mid], b[last]
			if msgLess(&slab[b[mid]], &slab[b[0]]) {
				b[mid], b[0] = b[0], b[mid]
			}
		}
		p := slab[b[mid]]
		i, j := -1, len(b)
		for {
			for i++; msgLess(&slab[b[i]], &p); i++ {
			}
			for j--; msgLess(&p, &slab[b[j]]); j-- {
			}
			if i >= j {
				break
			}
			b[i], b[j] = b[j], b[i]
		}
		if lo, hi := b[:j+1], b[j+1:]; len(lo) < len(hi) {
			sortSlots(lo, slab, depth)
			b = hi
		} else {
			sortSlots(hi, slab, depth)
			b = lo
		}
	}
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && msgLess(&slab[b[j]], &slab[b[j-1]]); j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

// msgLess orders events by (At, Src, Seq), the total order every
// group's run is read in.
func msgLess(a, b *Msg) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}
