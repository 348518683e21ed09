package sim

import (
	"fmt"
	"strings"
	"testing"
)

// toyProto is a minimal shard-invariance workload: every node runs a
// few gossip rounds, pinging a ring neighbor and a splitmix-chosen far
// node, journaling every transition, counting messages, and sampling
// delivery times. It exercises cross-node sends and self-timers (both
// clamped from sub-lookahead delays), per-node randomness, metrics, and
// the journal — everything the invariance contract covers.
type toyProto struct {
	n    int
	rngs []uint64
}

const (
	tpTimer uint16 = iota
	tpPing
	tpPong
)

const (
	tjSent uint16 = iota
	tjGot
)

func newToy(n int, seed uint64) *toyProto {
	p := &toyProto{n: n, rngs: make([]uint64, n)}
	for i := range p.rngs {
		p.rngs[i] = seed ^ uint64(i)<<1
	}
	return p
}

func (p *toyProto) HandleMsg(sc *ShardContext, m Msg) {
	switch m.Kind {
	case tpTimer:
		u := m.Dst
		far := uint32(SplitMix64(&p.rngs[u]) % uint64(p.n))
		// The neighbor ping continues the round chain (its pong carries
		// Hop); the far ping is a leaf (Hop 0) so load stays linear.
		sc.Metrics.Count("toy-ping", 1)
		sc.Journal(tjSent, u, (u+1)%uint32(p.n), uint32(m.Hop))
		sc.Send(0.25, Msg{Src: u, Dst: (u + 1) % uint32(p.n), Kind: tpPing, Hop: m.Hop})
		if far != u {
			sc.Metrics.Count("toy-ping", 1)
			sc.Journal(tjSent, u, far, 0)
			sc.Send(0.25, Msg{Src: u, Dst: far, Kind: tpPing, Hop: 0})
		}
	case tpPing:
		sc.Metrics.Sample("toy-delivery", float64(sc.Now()))
		sc.Journal(tjGot, m.Dst, m.Src, uint32(m.Hop))
		sc.Send(0.5, Msg{Src: m.Dst, Dst: m.Src, Kind: tpPong, Hop: m.Hop})
	case tpPong:
		if m.Hop > 0 {
			u := m.Dst
			// Deliberately sub-lookahead self-delay: Send clamps it to
			// the lookahead.
			d := Time(SplitMix64(&p.rngs[u])%100) / 1000
			sc.Send(d, Msg{Src: u, Dst: u, Kind: tpTimer, Hop: m.Hop - 1})
		}
	}
}

func runToy(t *testing.T, nodes, shards int, affinity []uint32) (string, Metrics, Time) {
	t.Helper()
	p := newToy(nodes, 42)
	e := NewSharded(nodes, shards, 1, affinity, p)
	e.EnableJournal()
	for u := 0; u < nodes; u++ {
		e.Prime(Time(u)/10, Msg{Src: uint32(u), Dst: uint32(u), Kind: tpTimer, Hop: 3})
	}
	end := e.Run()
	var b strings.Builder
	for _, j := range e.Journal() {
		fmt.Fprintf(&b, "%.4f %d %d %d k%d n%d a%d b%d\n", float64(j.At), j.Src, j.Seq, j.Sub, j.Kind, j.Node, j.A, j.B)
	}
	return b.String(), e.MergedMetrics(), end
}

func metricsTable(m Metrics) string {
	var b strings.Builder
	for _, name := range m.CounterNames() {
		fmt.Fprintf(&b, "ctr %s %d\n", name, m.Counter(name))
	}
	for _, name := range m.SampleNames() {
		s := Summarize(m.Samples(name))
		fmt.Fprintf(&b, "smp %s n=%d p50=%.6f p99=%.6f\n", name, s.N, s.P50, s.P99)
	}
	return b.String()
}

// TestShardCountInvariance is the engine-level analogue of PR-9's
// cross-driver gate: the journal, merged metrics table, and final
// virtual time of a sharded run must be byte-identical for 1, 2, and 8
// shards, with and without an affinity grouping.
func TestShardCountInvariance(t *testing.T) {
	for _, affinity := range [][]uint32{nil, makeAffinity(37, 5)} {
		ref, refM, refEnd := runToy(t, 37, 1, affinity)
		if !strings.Contains(ref, "k1") {
			t.Fatal("reference run recorded no deliveries; workload is vacuous")
		}
		for _, shards := range []int{2, 3, 8} {
			j, m, end := runToy(t, 37, shards, affinity)
			if j != ref {
				t.Fatalf("journal diverged at %d shards (affinity=%v):\n--- 1 shard ---\n%s\n--- %d shards ---\n%s",
					shards, affinity != nil, excerptDiff(ref, j), shards, excerptDiff(j, ref))
			}
			if got, want := metricsTable(m), metricsTable(refM); got != want {
				t.Fatalf("metrics diverged at %d shards:\n%s\nvs\n%s", shards, got, want)
			}
			if end != refEnd {
				t.Fatalf("final time diverged at %d shards: %v vs %v", shards, end, refEnd)
			}
		}
	}
}

func makeAffinity(n, keys int) []uint32 {
	a := make([]uint32, n)
	for i := range a {
		a[i] = uint32((i * 7) % keys)
	}
	return a
}

// excerptDiff returns the first few lines where a and b differ.
func excerptDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			hi := i + 3
			if hi > len(al) {
				hi = len(al)
			}
			return fmt.Sprintf("first divergence at line %d:\n%s", i, strings.Join(al[i:hi], "\n"))
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(al), len(bl))
}

// echoProto is the engine-cost workload: each node's timer pings a fixed
// peer, the peer replies, and the reply re-arms the timer, for a fixed
// number of rounds — three events per node per round, exactly.
type echoProto struct{ nodes, rounds uint32 }

func (p echoProto) HandleMsg(sc *ShardContext, m Msg) {
	switch m.Kind {
	case tpTimer:
		peer := uint32((uint64(m.Dst)*2654435761 + 1) % uint64(p.nodes))
		sc.Send(1, Msg{Src: m.Dst, Dst: peer, Kind: tpPing, Hop: m.Hop})
	case tpPing:
		sc.Send(1, Msg{Src: m.Dst, Dst: m.Src, Kind: tpPong, Hop: m.Hop})
	case tpPong:
		if uint32(m.Hop)+1 < p.rounds {
			sc.Send(10, Msg{Src: m.Dst, Dst: m.Dst, Kind: tpTimer, Hop: m.Hop + 1})
		}
	}
}

// TestShardedEventCount: Events counts every handled message once, at
// any shard count and affinity.
func TestShardedEventCount(t *testing.T) {
	const nodes, rounds = 101, 4
	for _, affinity := range [][]uint32{nil, makeAffinity(nodes, 7)} {
		for _, shards := range []int{1, 2, 8} {
			e := NewSharded(nodes, shards, 1, affinity, echoProto{nodes: nodes, rounds: rounds})
			for n := 0; n < nodes; n++ {
				e.Prime(Time(n%16)/16, Msg{Src: uint32(n), Dst: uint32(n), Kind: tpTimer})
			}
			if got := e.Events(); got != 0 {
				t.Fatalf("%d events before Run", got)
			}
			e.Run()
			if got, want := e.Events(), int64(3*nodes*rounds); got != want {
				t.Fatalf("%d shards (affinity=%v): %d events, want %d", shards, affinity != nil, got, want)
			}
		}
	}
}

// TestRunReleasesQueues: once Run drains, no shard holds overflow, slab,
// free-list, bucket, bucket-pool, group-sort count and scratch or outbox
// capacity, and what a run is
// read for afterwards — Events, Journal and MergedMetrics — is what the
// handler saw: one event per handled message, and the same journal and
// metrics at 1, 2 and 8 shards.
func TestRunReleasesQueues(t *testing.T) {
	const nodes = 37
	var ref string
	for _, shards := range []int{1, 2, 8} {
		toy := newToy(nodes, 42)
		var handled [8]int64 // per shard: a shard's messages are handled by one worker
		e := NewSharded(nodes, shards, 1, nil, handlerFunc(func(sc *ShardContext, m Msg) {
			handled[sc.Shard()]++
			toy.HandleMsg(sc, m)
		}))
		e.EnableJournal()
		for u := 0; u < nodes; u++ {
			e.Prime(Time(u)/10, Msg{Src: uint32(u), Dst: uint32(u), Kind: tpTimer, Hop: 3})
		}
		e.Run()
		for _, sc := range e.shards {
			if cap(sc.overflow) != 0 {
				t.Errorf("%d shards: shard %d holds overflow capacity %d after Run", shards, sc.shard, cap(sc.overflow))
			}
			if cap(sc.slab) != 0 || cap(sc.free) != 0 || cap(sc.pool) != 0 {
				t.Errorf("%d shards: shard %d holds slab %d, free-list %d and pool %d capacity after Run",
					shards, sc.shard, cap(sc.slab), cap(sc.free), cap(sc.pool))
			}
			if cap(sc.count) != 0 || cap(sc.scratch) != 0 {
				t.Errorf("%d shards: shard %d holds group-sort count %d and scratch %d capacity after Run",
					shards, sc.shard, cap(sc.count), cap(sc.scratch))
			}
			for w, b := range sc.ring {
				if cap(b) != 0 {
					t.Errorf("%d shards: shard %d holds bucket %d capacity %d after Run", shards, sc.shard, w, cap(b))
				}
			}
			for d, box := range sc.outbox {
				if cap(box) != 0 {
					t.Errorf("%d shards: shard %d holds outbox %d capacity %d after Run", shards, sc.shard, d, cap(box))
				}
			}
		}
		var sum int64
		for _, n := range handled {
			sum += n
		}
		if got := e.Events(); got != sum || sum == 0 {
			t.Errorf("%d shards: Events() = %d, handler saw %d", shards, got, sum)
		}
		var b strings.Builder
		for _, j := range e.Journal() {
			fmt.Fprintf(&b, "%.4f %d %d %d k%d n%d a%d b%d\n", float64(j.At), j.Src, j.Seq, j.Sub, j.Kind, j.Node, j.A, j.B)
		}
		got := b.String() + metricsTable(e.MergedMetrics())
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Errorf("%d shards: journal or metrics after Run differ from 1 shard's", shards)
		}
	}
}

// TestShardedLookaheadClamp: every send is clamped to at least the
// lookahead — an inter-node message uniformly, even when src and dst
// share a shard, and a self-timer too.
func TestShardedLookaheadClamp(t *testing.T) {
	type event struct {
		at   Time
		kind uint16
	}
	var got []event
	h := handlerFunc(func(sc *ShardContext, m Msg) {
		got = append(got, event{sc.Now(), m.Kind})
		if m.Kind == 0 {
			sc.Send(0.01, Msg{Src: m.Dst, Dst: (m.Dst + 1) % 2, Kind: 1}) // inter-node: clamps to 1
			sc.Send(0.01, Msg{Src: m.Dst, Dst: m.Dst, Kind: 2})           // timer: clamps to 1
		}
	})
	e := NewSharded(2, 1, 1, nil, h)
	e.Prime(0, Msg{Src: 0, Dst: 0, Kind: 0})
	e.Run()
	// Window 1 is read by group: node 0's timer, then node 1's message.
	want := []event{{0, 0}, {1, 2}, {1, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %d events (%v), want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d is %+v, want %+v (order %v)", i, got[i], want[i], got)
		}
	}
}

type handlerFunc func(sc *ShardContext, m Msg)

func (f handlerFunc) HandleMsg(sc *ShardContext, m Msg) { f(sc, m) }

// TestShardedSteadyStateAllocs: after the first windows have sized the
// slab, buckets, group-sort scratch, overflow and outboxes, the event loop
// must not allocate: Send, route, filing an event under its window,
// sorting the bucket by group and reading it, and the toy handler's
// SplitMix64 draws.
func TestShardedSteadyStateAllocs(t *testing.T) {
	p := newToy(64, 7)
	e := NewSharded(64, 1, 1, nil, p)
	for u := 0; u < 64; u++ {
		e.Prime(Time(u)/100, Msg{Src: uint32(u), Dst: uint32(u), Kind: tpTimer, Hop: 64})
	}
	// Warm up: run a slice of the schedule so slabs reach steady size.
	for i := 0; i < 64; i++ {
		w, _ := e.minPending()
		ForEach(1, e.nshards, func(s int) { e.shards[s].runWindow(w, e.handler) })
		e.exchange()
	}
	avg := testing.AllocsPerRun(20, func() {
		w, ok := e.minPending()
		if !ok {
			t.Fatal("workload drained during alloc measurement; lengthen it")
		}
		e.shards[0].runWindow(w, e.handler)
		e.exchange()
	})
	// Metrics sampling appends to map-held slices that legitimately
	// regrow; everything else (slab, buckets, outboxes, the group sort's scratch,
	// journal off) must be slab-steady. Allow a tiny growth budget
	// rather than zero, under the one allocation a window makes when an
	// array is not reused.
	t.Logf("steady-state window: %.2f allocs", avg)
	if avg > 0.5 {
		t.Fatalf("steady-state window averaged %.2f allocs; event path is allocating", avg)
	}
}
