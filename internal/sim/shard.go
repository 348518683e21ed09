package sim

import (
	"math"
	"sort"
)

// This file extends the discrete-event substrate from parallel *trials*
// (ForEach + Metrics.Merge, one independent seed per trial) to a
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
//   - Events are plain value Msgs — no closures, no pointers — stored
//     in per-shard slab-backed heaps and outboxes whose backing arrays
//     are reused for the lifetime of the run. After warm-up the event
//     loop performs no allocation (the hotpath analyzer guards the
//     Send/push/pop path).
//   - Every message between *different* nodes takes at least Lookahead
//     virtual time; self-messages (timers) may use any delay. The run
//     advances in windows of Lookahead, with a barrier between windows
//     at which shards exchange outboxes. A message sent in window k to
//     another node is therefore always delivered in window k+1 or
//     later, so no shard can receive an event in its past.
//   - Messages carry a (Src, Seq) pair — Seq from a per-node send
//     counter — and each shard processes its heap in (At, Src, Seq)
//     order, a total order independent of sharding. A node therefore
//     sees exactly the same delivery sequence at any shard count, which
//     is what makes merged metrics, final state, and the sorted journal
//     byte-identical for 1, 2, or 64 shards.

// Msg is one simulated event: a message between nodes, or a self-timer
// when Src == Dst. It is a pure value — the event heap and cross-shard
// outboxes are flat []Msg slabs, never per-event allocations.
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
}

// Handler processes one delivered event. Implementations must only
// touch state owned by m.Dst (plus shard-private sinks reachable
// through sc) and must derive any randomness from per-node state — the
// two rules that make runs shard-count invariant.
type Handler interface {
	HandleMsg(sc *ShardContext, m Msg)
}

// JournalEntry is one handler-recorded protocol transition. Entries
// sort by (At, Src, Seq, Sub) — the same total order events are
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
// Handler: the shard's private metrics sink, its event heap and
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

	heap    msgHeap
	outbox  [][]Msg // per-destination-shard send buffers, reused
	journal []JournalEntry
	events  int64 // messages handled by this shard
}

// Now returns the virtual time of the event being handled.
func (sc *ShardContext) Now() Time { return sc.now }

// Shard returns this context's shard index.
func (sc *ShardContext) Shard() int { return sc.shard }

// Send schedules m after delay. m.Src must be a node owned by this
// shard (its own per-node send counter provides the Seq). Messages to a
// different node are clamped to at least the engine's Lookahead —
// uniformly, whether or not the destination happens to live on the same
// shard, so timing never depends on the node→shard assignment.
//
//rofllint:hotpath
func (sc *ShardContext) Send(delay Time, m Msg) {
	e := sc.eng
	if delay < 0 {
		delay = 0
	}
	if m.Dst != m.Src && delay < e.lookahead {
		delay = e.lookahead
	}
	m.At = sc.now + delay
	m.Seq = e.seqOf[m.Src]
	e.seqOf[m.Src]++
	d := e.ownerOf(m.Dst)
	if d == sc.shard {
		sc.heap.push(m)
		return
	}
	sc.outbox[d] = append(sc.outbox[d], m)
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

// runWindow processes every queued event with At < barrier.
func (sc *ShardContext) runWindow(barrier Time, h Handler) {
	for len(sc.heap) > 0 && sc.heap[0].At < barrier {
		m := sc.heap.pop()
		sc.now = m.At
		sc.curAt, sc.curSrc, sc.curSeq, sc.sub = m.At, m.Src, m.Seq, 0
		h.HandleMsg(sc, m)
		sc.events++
	}
}

// ShardedEngine coordinates the windows and barriers of one sharded
// single-network run. Construct with NewSharded, seed initial events
// with Prime, then Run. The engine is not reusable after Run returns.
type ShardedEngine struct {
	handler   Handler
	shards    []*ShardContext
	nshards   int
	lookahead Time
	affinity  []uint32
	seqOf     []uint64 // per-node send counters; only the owner shard touches a node's slot
	journalOn bool
	workers   int
	now       Time
}

// NewSharded builds an engine for nodes dense handles [0, nodes) split
// across the given number of shards. lookahead is the minimum
// inter-node message delay and the barrier window length.
//
// affinity optionally groups nodes: node n is owned by shard
// affinity[n] % shards (nil means n % shards). Grouping every node that
// shares a mutable resource — e.g. all virtual nodes hosted by one
// router, sharing its pointer cache — onto one affinity key keeps that
// resource shard-private at every shard count, which is what lets
// handlers touch it without locks and without breaking invariance.
func NewSharded(nodes, shards int, lookahead Time, affinity []uint32, h Handler) *ShardedEngine {
	if shards < 1 {
		shards = 1
	}
	if lookahead <= 0 {
		lookahead = 1
	}
	e := &ShardedEngine{
		handler:   h,
		nshards:   shards,
		lookahead: lookahead,
		affinity:  affinity,
		seqOf:     make([]uint64, nodes),
		workers:   shards,
	}
	e.shards = make([]*ShardContext, shards)
	for s := range e.shards {
		sc := &ShardContext{Metrics: NewMetrics(), eng: e, shard: s}
		sc.outbox = make([][]Msg, shards)
		e.shards[s] = sc
	}
	return e
}

// ownerOf maps a node to its owning shard.
//
//rofllint:hotpath
func (e *ShardedEngine) ownerOf(node uint32) int {
	a := node
	if e.affinity != nil {
		a = e.affinity[node]
	}
	return int(a % uint32(e.nshards))
}

// EnableJournal turns on transition journaling (off by default: a
// million-node run would record tens of millions of entries).
func (e *ShardedEngine) EnableJournal() { e.journalOn = true }

// Prime enqueues an initial event before Run, directly into the owner
// shard's heap. The same inter-node Lookahead clamp as Send applies.
// Prime must not be called after Run has started.
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
	e.shards[e.ownerOf(m.Dst)].heap.push(m)
}

// Run drains every shard to quiescence and returns the final barrier
// time. Windows advance in multiples of Lookahead; empty stretches of
// virtual time are skipped in one step. Within a window the shards run
// in parallel across the worker pool; between windows the engine
// sequentially drains every outbox into the destination heaps (the
// order is irrelevant to the result — heap order is the total
// (At, Src, Seq) key — but draining serially keeps the exchange
// race-free by construction).
func (e *ShardedEngine) Run() Time {
	for {
		min, ok := e.minPending()
		if !ok {
			return e.now
		}
		barrier := Time(math.Floor(float64(min/e.lookahead))+1) * e.lookahead
		ForEach(e.workers, e.nshards, func(s int) {
			e.shards[s].runWindow(barrier, e.handler)
		})
		e.exchange()
		e.now = barrier
	}
}

// exchange drains every shard's outboxes into the destination heaps.
func (e *ShardedEngine) exchange() {
	for _, dst := range e.shards {
		for _, src := range e.shards {
			box := src.outbox[dst.shard]
			for i := range box {
				dst.heap.push(box[i])
			}
			src.outbox[dst.shard] = box[:0]
		}
	}
}

// minPending returns the earliest queued event time across all shards.
func (e *ShardedEngine) minPending() (Time, bool) {
	var min Time
	found := false
	for _, sc := range e.shards {
		if len(sc.heap) == 0 {
			continue
		}
		if !found || sc.heap[0].At < min {
			min, found = sc.heap[0].At, true
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

// MergedMetrics folds the per-shard sinks into a fresh Metrics in shard
// order. Counter totals and sample multisets are shard-count invariant;
// sample *order* within a set is not, and every consumer (Summarize,
// Quantile, CDF) sorts first — the same contract Metrics.Merge
// documents for the trial pool.
func (e *ShardedEngine) MergedMetrics() Metrics {
	m := NewMetrics()
	for _, sc := range e.shards {
		m.Merge(sc.Metrics)
	}
	return m
}

// Journal returns every recorded transition sorted by (At, Src, Seq,
// Sub) — the global processing order — so the rendered journal of a
// run is byte-identical at any shard count.
func (e *ShardedEngine) Journal() []JournalEntry {
	var out []JournalEntry
	for _, sc := range e.shards {
		out = append(out, sc.journal...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Sub < b.Sub
	})
	return out
}

// SplitMix64 advances a per-node PRNG state and returns the next 64
// random bits (Steele et al.'s splitmix64). One uint64 of state per
// node replaces a rand.Rand per node (~5 KB each — 5 GB at a million
// nodes); handlers use it for jitter and sampling so that randomness is
// a pure function of the node's seed and message history, independent
// of sharding.
//
//rofllint:hotpath
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// --- slab-backed event heap ----------------------------------------------

// msgHeap is a monomorphic binary min-heap of Msgs ordered by
// (At, Src, Seq). container/heap would box every event into an
// interface{}; storing values in one growing slab keeps the steady
// state allocation-free (the backing array is reused across the run).
type msgHeap []Msg

func msgLess(a, b *Msg) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

//rofllint:hotpath
func (h *msgHeap) push(m Msg) {
	*h = append(*h, m)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if msgLess(&s[parent], &s[i]) {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

//rofllint:hotpath
func (h *msgHeap) pop() Msg {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && msgLess(&s[l], &s[min]) {
			min = l
		}
		if r < n && msgLess(&s[r], &s[min]) {
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
