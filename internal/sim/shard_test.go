package sim

import (
	"fmt"
	"strings"
	"testing"
)

// toyProto is a minimal shard-invariance workload: every node runs a
// few gossip rounds, pinging a ring neighbor and a splitmix-chosen far
// node, journaling every transition, counting messages, and sampling
// delivery times. It exercises cross-node sends (clamped), self-timers
// (sub-lookahead delays), per-node randomness, metrics, and the
// journal — everything the invariance contract covers.
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
			// Deliberately sub-lookahead self-delay: timers are exempt
			// from the clamp.
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

// TestShardedLookaheadClamp: inter-node messages are clamped to at
// least the lookahead — uniformly, even when src and dst share a shard
// — while self-messages keep their short delays.
func TestShardedLookaheadClamp(t *testing.T) {
	var times []Time
	h := handlerFunc(func(sc *ShardContext, m Msg) {
		times = append(times, sc.Now())
		if m.Kind == 0 {
			sc.Send(0.01, Msg{Src: m.Dst, Dst: (m.Dst + 1) % 2, Kind: 1}) // inter-node: clamps to 1
			sc.Send(0.01, Msg{Src: m.Dst, Dst: m.Dst, Kind: 2})           // timer: stays 0.01
		}
	})
	e := NewSharded(2, 1, 1, nil, h)
	e.Prime(0, Msg{Src: 0, Dst: 0, Kind: 0})
	e.Run()
	want := []Time{0, 0.01, 1}
	if len(times) != len(want) {
		t.Fatalf("got %d events (%v), want %v", len(times), times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("event %d at t=%v, want %v (order %v)", i, times[i], want[i], times)
		}
	}
}

type handlerFunc func(sc *ShardContext, m Msg)

func (f handlerFunc) HandleMsg(sc *ShardContext, m Msg) { f(sc, m) }

// TestShardedHeapOrder: events with identical delivery times are
// processed in (Src, Seq) order, the tiebreak that makes processing
// order a total order independent of arrival path.
func TestShardedHeapOrder(t *testing.T) {
	var h msgHeap
	h.push(Msg{At: 5, Src: 2, Seq: 0})
	h.push(Msg{At: 5, Src: 1, Seq: 1})
	h.push(Msg{At: 5, Src: 1, Seq: 0})
	h.push(Msg{At: 4, Src: 9, Seq: 9})
	got := []Msg{h.pop(), h.pop(), h.pop(), h.pop()}
	want := []Msg{
		{At: 4, Src: 9, Seq: 9},
		{At: 5, Src: 1, Seq: 0},
		{At: 5, Src: 1, Seq: 1},
		{At: 5, Src: 2, Seq: 0},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestShardedSteadyStateAllocs: after the first window has sized the
// heaps and outboxes, the event loop must not allocate. This is the
// runtime check backing the hotpath analyzer's static one.
func TestShardedSteadyStateAllocs(t *testing.T) {
	p := newToy(64, 7)
	e := NewSharded(64, 1, 1, nil, p)
	for u := 0; u < 64; u++ {
		e.Prime(Time(u)/100, Msg{Src: uint32(u), Dst: uint32(u), Kind: tpTimer, Hop: 64})
	}
	// Warm up: run a slice of the schedule so slabs reach steady size.
	min, _ := e.minPending()
	for i := 0; i < 64; i++ {
		barrier := min + Time(i+1)
		ForEach(1, e.nshards, func(s int) { e.shards[s].runWindow(barrier, e.handler) })
		e.exchange()
	}
	avg := testing.AllocsPerRun(20, func() {
		min, ok := e.minPending()
		if !ok {
			t.Fatal("workload drained during alloc measurement; lengthen it")
		}
		barrier := min + 1
		e.shards[0].runWindow(barrier, e.handler)
		e.exchange()
	})
	// Metrics sampling appends to map-held slices that legitimately
	// regrow; everything else (heap, outboxes, journal off) must be
	// slab-steady. Allow a tiny growth budget rather than zero.
	if avg > 1 {
		t.Fatalf("steady-state window averaged %.1f allocs; event path is allocating", avg)
	}
}
