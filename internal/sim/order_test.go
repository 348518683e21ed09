package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"testing"
	"unsafe"
)

// orderProto is a random schedule for the queue-order oracle. Each
// handled message sends up to two more while its node's budget lasts,
// with delays drawn from the node's own stream:
//   - zero-delay and sub-Lookahead self-timers, which Send clamps to
//     Lookahead, so that a node's own events tie on At;
//   - sends to any node below Lookahead, clamped to it;
//   - sends to any node at or a few windows past Lookahead, on a grid
//     of quarter windows, so that At values tie across sources;
//   - self-timers and sends further ahead than the bucket ring reaches.
type orderProto struct {
	lookahead Time
	rngs      []uint64
	budget    []int
	handled   [][]Msg // per node, in handling order
	shardSeq  [][]Msg // per shard, in handling order (engine runs only)
	clamped   []int64 // per node, sends requested below Lookahead
}

const orderBudget = 24

func newOrderProto(nodes, shards int, lookahead Time, seed uint64) *orderProto {
	p := &orderProto{
		lookahead: lookahead,
		rngs:      make([]uint64, nodes),
		budget:    make([]int, nodes),
		clamped:   make([]int64, nodes),
		handled:   make([][]Msg, nodes),
		shardSeq:  make([][]Msg, shards),
	}
	for u := range p.rngs {
		p.rngs[u] = seed*0x9e3779b97f4a7c15 ^ uint64(u)
		p.budget[u] = orderBudget
	}
	return p
}

// primes returns each node's initial timer, on the quarter-window grid.
func (p *orderProto) primes() []Msg {
	out := make([]Msg, len(p.rngs))
	for u := range out {
		q := SplitMix64(&p.rngs[u]) % 16
		out[u] = Msg{At: p.lookahead * Time(q) / 4, Src: uint32(u), Dst: uint32(u)}
	}
	return out
}

// orderEnv is what the schedule needs from a queue: the ShardContext's
// methods, which the reference queue implements too.
type orderEnv interface {
	Now() Time
	Send(delay Time, m Msg)
	Journal(kind uint16, node, a, b uint32)
}

func (p *orderProto) react(env orderEnv, m Msg) {
	u := m.Dst
	p.handled[u] = append(p.handled[u], m)
	env.Journal(m.Kind, u, m.Src, uint32(m.Seq))
	nodes := uint64(len(p.rngs))
	for n := 0; n < 2 && p.budget[u] > 0; n++ {
		r := SplitMix64(&p.rngs[u])
		p.budget[u]--
		out := Msg{Src: u, Dst: u, Kind: uint16(r % 7)}
		var delay Time
		switch out.Kind {
		case 0: // a zero-delay timer
		case 1, 2: // a sub-Lookahead self-timer
			delay = p.lookahead * Time(1+r>>8%7) / 8
		case 3, 4: // another node (maybe u itself), clamped to Lookahead
			out.Dst = uint32(r >> 8 % nodes)
		case 5: // another node, on the quarter-window grid
			out.Dst = uint32(r >> 8 % nodes)
			delay = p.lookahead * Time(4+r>>24%12) / 4
		case 6: // past the ring's span, to any node
			out.Dst = uint32(r >> 8 % nodes)
			delay = p.lookahead * Time(ringSpan+r>>24%40)
		}
		if delay < p.lookahead {
			p.clamped[u]++
		}
		env.Send(delay, out)
	}
}

// HandleMsg is the engine side: it records the shard's order, then
// reacts. The group the engine filed m under is cleared, so that m
// compares with the reference's messages.
func (p *orderProto) HandleMsg(sc *ShardContext, m Msg) {
	m.grp = 0
	p.shardSeq[sc.Shard()] = append(p.shardSeq[sc.Shard()], m)
	p.react(sc, m)
}

// refQueue is the reference: one global heap, no shards, no windows. It
// applies Send's rules itself: every delay clamps to Lookahead, and no
// event lands before the end of the window its sender is handled in.
type refQueue struct {
	lookahead Time
	now       Time
	cur       Msg
	sub       uint32
	seq       []uint64
	q         refHeap
	journal   []JournalEntry
	order     []Msg // every handled message, in handling order
}

type refHeap []Msg

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(Msg)) }
func (h *refHeap) Pop() any {
	old := *h
	m := old[len(old)-1]
	*h = old[:len(old)-1]
	return m
}

// windowEnd returns the barrier that closes the window holding at: the
// first multiple (w+1)·Lookahead above it.
func (r *refQueue) windowEnd(at Time) Time {
	w := int64(at/r.lookahead) - 2
	if w < 0 {
		w = 0
	}
	for at >= Time(w+1)*r.lookahead {
		w++
	}
	return Time(w+1) * r.lookahead
}

func (r *refQueue) Now() Time { return r.now }

func (r *refQueue) Send(delay Time, m Msg) {
	if delay < r.lookahead {
		delay = r.lookahead
	}
	m.At = r.now + delay
	if end := r.windowEnd(r.now); m.At < end {
		m.At = end
	}
	m.Seq = r.seq[m.Src]
	r.seq[m.Src]++
	heap.Push(&r.q, m)
}

func (r *refQueue) Journal(kind uint16, node, a, b uint32) {
	r.journal = append(r.journal, JournalEntry{
		At: r.cur.At, Src: r.cur.Src, Seq: r.cur.Seq, Sub: r.sub,
		Kind: kind, Node: node, A: a, B: b,
	})
	r.sub++
}

// runRef runs the schedule on the reference queue and returns it, its
// journal sorted, and the end of the last window anything was handled
// in.
func runRef(p *orderProto) (*refQueue, Time) {
	r := &refQueue{lookahead: p.lookahead, seq: make([]uint64, len(p.rngs))}
	for _, m := range p.primes() {
		m.Seq = r.seq[m.Src]
		r.seq[m.Src]++
		heap.Push(&r.q, m)
	}
	var end Time
	for r.q.Len() > 0 {
		m := heap.Pop(&r.q).(Msg)
		r.now, r.cur, r.sub = m.At, m, 0
		r.order = append(r.order, m)
		p.react(r, m)
		end = r.windowEnd(m.At)
	}
	sort.Slice(r.journal, func(i, j int) bool {
		a, b := &r.journal[i], &r.journal[j]
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
	return r, end
}

// shardOrder returns the messages the reference handled for shard s's
// nodes in the order s must handle them: by window, then by group (the
// affinity key's bits above the engine's group shift), then by
// (At, Src, Seq).
func (r *refQueue) shardOrder(s, shards int, affinity []uint32, grpShift uint) []Msg {
	keyOf := func(m *Msg) uint32 {
		if affinity == nil {
			return m.Dst
		}
		return affinity[m.Dst]
	}
	var out []Msg
	for _, m := range r.order {
		if int(keyOf(&m)%uint32(shards)) == s {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if wa, wb := r.windowEnd(a.At), r.windowEnd(b.At); wa != wb {
			return wa < wb
		}
		if ga, gb := keyOf(a)>>grpShift, keyOf(b)>>grpShift; ga != gb {
			return ga < gb
		}
		return msgLess(a, b)
	})
	return out
}

// orderCoverage counts what a schedule exercised, so the oracle cannot
// pass vacuously: clamped counts the sends requested below Lookahead,
// and regrouped the events a shard handled before one of smaller
// (At, Src, Seq) key, which a later group held.
type orderCoverage struct {
	events, overflow, clamped, ties, regrouped int64
}

func (c *orderCoverage) add(o orderCoverage) {
	c.events += o.events
	c.overflow += o.overflow
	c.clamped += o.clamped
	c.ties += o.ties
	c.regrouped += o.regrouped
}

// checkQueueOrder runs one schedule on the engine and on the reference
// and reports the first difference.
func checkQueueOrder(nodes, shards int, lookahead Time, affinity []uint32, seed uint64) (orderCoverage, error) {
	p := newOrderProto(nodes, shards, lookahead, seed)
	ref := newOrderProto(nodes, shards, lookahead, seed)
	e := NewSharded(nodes, shards, lookahead, affinity, p)
	e.EnableJournal()
	for _, m := range p.primes() {
		e.Prime(m.At, m)
	}
	end := e.Run()
	r, refEnd := runRef(ref)

	var cov orderCoverage
	cov.events, cov.overflow = e.Events(), e.OverflowEvents()
	for s, got := range p.shardSeq {
		want := r.shardOrder(s, shards, affinity, e.grpShift)
		if len(got) != len(want) {
			return cov, fmt.Errorf("shard %d handled %d messages, reference %d", s, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return cov, fmt.Errorf("shard %d message %d: %+v, reference order %+v", s, i, got[i], want[i])
			}
			if i > 0 && msgLess(&got[i], &got[i-1]) {
				cov.regrouped++
			}
		}
	}
	for u := range p.handled {
		cov.clamped += p.clamped[u]
		got, want := p.handled[u], ref.handled[u]
		if len(got) != len(want) {
			return cov, fmt.Errorf("node %d handled %d messages, reference %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return cov, fmt.Errorf("node %d message %d: %+v, reference %+v", u, i, got[i], want[i])
			}
			if i > 0 && want[i].At == want[i-1].At && want[i].Src != want[i-1].Src {
				cov.ties++
			}
		}
	}
	journal, refJournal := e.Journal(), r.journal
	if len(journal) != len(refJournal) {
		return cov, fmt.Errorf("journal has %d entries, reference %d", len(journal), len(refJournal))
	}
	for i := range journal {
		if journal[i] != refJournal[i] {
			return cov, fmt.Errorf("journal entry %d: %+v, reference %+v", i, journal[i], refJournal[i])
		}
	}
	if end != refEnd {
		return cov, fmt.Errorf("run ended at %v, reference %v", end, refEnd)
	}
	return cov, nil
}

// orderAffinities returns the oracle's two node groupings: none (each
// node its own key) and several nodes on each of more keys than shards.
func orderAffinities(nodes int) [][]uint32 {
	return [][]uint32{nil, makeAffinity(nodes, max(4, nodes/3))}
}

// TestShardedQueueOrder holds the bucketed queue to a heap-only
// reference on random schedules at Lookahead 1 and 0.25, on 1, 2 and 3
// shards, without and with an affinity grouping, and on more nodes than
// groups: every shard handles exactly the reference's messages for its
// nodes in (window, group, At, Src, Seq) order, and each node's handled
// sequence, the sorted journal and the final time equal the reference's.
func TestShardedQueueOrder(t *testing.T) {
	var cov orderCoverage
	for seed := uint64(1); seed <= 12; seed++ {
		nodes := 5 + int(seed)*3
		for _, lookahead := range []Time{1, 0.25} {
			for _, affinity := range orderAffinities(nodes) {
				for shards := 1; shards <= 3; shards++ {
					c, err := checkQueueOrder(nodes, shards, lookahead, affinity, seed)
					if err != nil {
						t.Fatalf("seed %d, Lookahead %v, affinity %v, %d shards: %v", seed, lookahead, affinity != nil, shards, err)
					}
					cov.add(c)
				}
			}
		}
	}
	// More nodes than maxGroups: each group holds several keys.
	c, err := checkQueueOrder(3*maxGroups, 2, 1, nil, 99)
	if err != nil {
		t.Fatalf("%d nodes: %v", 3*maxGroups, err)
	}
	cov.add(c)
	t.Logf("%d events, %d through the overflow, %d sends clamped to Lookahead, %d At ties across sources, %d read ahead of a smaller key in a later group",
		cov.events, cov.overflow, cov.clamped, cov.ties, cov.regrouped)
	if cov.overflow == 0 || cov.overflow == cov.events || cov.clamped == 0 || cov.ties == 0 || cov.regrouped == 0 {
		t.Fatalf("schedules do not cover both queue paths, the clamp, ties and group order: %+v", cov)
	}
}

// FuzzShardedQueueOrder runs the oracle of TestShardedQueueOrder on
// arbitrary schedules.
func FuzzShardedQueueOrder(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(1), false, false)
	f.Add(uint64(2), uint8(30), uint8(2), true, true)
	f.Add(uint64(3), uint8(1), uint8(3), true, false)
	f.Add(uint64(4), uint8(40), uint8(3), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, nodes, shards uint8, fine, grouped bool) {
		lookahead := Time(1)
		if fine {
			lookahead = 0.25
		}
		n := 1 + int(nodes%48)
		affinity := orderAffinities(n)[0]
		if grouped {
			affinity = orderAffinities(n)[1]
		}
		if _, err := checkQueueOrder(n, 1+int(shards%3), lookahead, affinity, seed); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMsgSize: the group Send and Prime file an event under sits in
// what was Msg's tail padding, so an event still takes 48 bytes of slab.
func TestMsgSize(t *testing.T) {
	if n := unsafe.Sizeof(Msg{}); n != 48 {
		t.Fatalf("Msg is %d bytes, want 48", n)
	}
}

// TestWindowOfMatchesBarrier: at a power-of-two Lookahead an event is
// filed under the window whose barrier comparison holds it, At <
// barrier(w) and not At < barrier(w-1), on both sides of every barrier;
// Run reaches an event that sits exactly on a barrier; and NewSharded
// refuses any other Lookahead.
func TestWindowOfMatchesBarrier(t *testing.T) {
	for _, lookahead := range []Time{1, 0.25, 1.0 / 1024, 4} {
		e := NewSharded(1, 1, lookahead, nil, handlerFunc(func(*ShardContext, Msg) {}))
		for w := int64(0); w < 5000; w++ {
			at, below := e.barrier(w), Time(math.Nextafter(float64(e.barrier(w)), 0))
			if got := e.windowOf(at); got != w+1 {
				t.Fatalf("Lookahead %v: windowOf(barrier(%d) = %v) = %d, want %d", lookahead, w, at, got, w+1)
			}
			if got := e.windowOf(below); got != w {
				t.Fatalf("Lookahead %v: windowOf(%v, just below barrier(%d)) = %d, want %d", lookahead, below, w, got, w)
			}
		}
		handled := 0
		e = NewSharded(1, 1, lookahead, nil, handlerFunc(func(*ShardContext, Msg) { handled++ }))
		e.Prime(31*lookahead, Msg{})
		if end := e.Run(); handled != 1 || end != 32*lookahead {
			t.Fatalf("Lookahead %v: an event on barrier(30) handled %d times, run ended at %v", lookahead, handled, end)
		}
	}
	for _, lookahead := range []Time{0.3, 0.1, 3, 0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSharded accepted Lookahead %v", lookahead)
				}
			}()
			NewSharded(1, 1, lookahead, nil, handlerFunc(func(*ShardContext, Msg) {}))
		}()
	}
}

// TestSortSlots: a bucket sorts to (At, Src, Seq) order, by the
// quicksort and by its fallback to the library sort, on keys that tie on
// At and on Src.
func TestSortSlots(t *testing.T) {
	var st uint64 = 3
	slab := make([]Msg, 3000)
	for i := range slab {
		slab[i] = Msg{At: Time(SplitMix64(&st) % 8), Src: uint32(SplitMix64(&st) % 5), Seq: uint64(i)}
	}
	for _, n := range []int{0, 1, 2, 12, 13, 100, 3000} {
		for _, depth := range []int{0, 64} {
			b := make([]uint32, n)
			for i := range b {
				b[i] = uint32(len(slab) - 1 - i)
			}
			sortSlots(b, slab, depth)
			for i := 1; i < n; i++ {
				if !msgLess(&slab[b[i-1]], &slab[b[i]]) {
					t.Fatalf("%d slots, depth %d: slot %d (%+v) sorts after %+v", n, depth, i, slab[b[i]], slab[b[i-1]])
				}
			}
		}
	}
}
