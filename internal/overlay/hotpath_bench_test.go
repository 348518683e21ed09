package overlay

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/proto"
	"rofl/internal/telemetry"
	"rofl/internal/wire"
)

// benchTransport is a sink: sends vanish, Recv blocks until Close. It
// isolates the node's own forwarding cost (lock, next-hop selection,
// marshal) from socket and fabric latency.
type benchTransport struct {
	closed chan struct{}
	once   sync.Once
}

func newBenchTransport() *benchTransport { return &benchTransport{closed: make(chan struct{})} }

func (s *benchTransport) Send(addr string, p []byte) error { return nil }
func (s *benchTransport) Recv() ([]byte, string, error) {
	<-s.closed
	return nil, "", errors.New("benchTransport closed")
}
func (s *benchTransport) LocalAddr() string { return "bench:0" }
func (s *benchTransport) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// benchKnown fills the remembered-peer set to the core's capacity
// bound (proto's maxKnown), the steady-state shape of a long-lived
// node.
const benchKnown = 128

// benchNode builds a node with a full successor group, a predecessor,
// and nKnown remembered peers — the steady-state shape of a member of a
// large ring.
func benchNode(tb testing.TB, nKnown int) *Node {
	tb.Helper()
	n, err := New(ident.FromUint64(1000), Config{Transport: newBenchTransport()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { n.Close() })
	pred := proto.Peer{ID: ident.FromUint64(500), Addr: "peer:500"}
	n.mu.Lock()
	n.core.InstallRing([]proto.Peer{
		{ID: ident.FromUint64(2000), Addr: "peer:2000"},
		{ID: ident.FromUint64(3000), Addr: "peer:3000"},
		{ID: ident.FromUint64(4000), Addr: "peer:4000"},
	}, &pred)
	for i := 0; i < nKnown; i++ {
		n.core.Learn(proto.Peer{ID: ident.FromUint64(uint64(10000 + i)), Addr: fmt.Sprintf("peer:%d", 10000+i)})
	}
	n.mu.Unlock()
	return n
}

// forward routes an already-built packet through the core: one greedy
// next-hop decision plus marshal and send, the unit these benchmarks
// time.
func (n *Node) forward(pkt *wire.Packet) error {
	a := getActs()
	defer putActs(a)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errClosed
	}
	n.core.ForwardData(pkt, a)
	n.mu.Unlock()
	return n.run(a)
}

// BenchmarkForwardData measures one greedy next-hop decision plus
// marshal and (sunk) send — the per-hop cost of the data path.
func BenchmarkForwardData(b *testing.B) {
	n := benchNode(b, benchKnown)
	pkt := &wire.Packet{
		Type: wire.TypeData, TTL: wire.DefaultTTL,
		Dst: ident.FromUint64(3500), Src: ident.FromUint64(77),
		Payload: make([]byte, 64),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.forward(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardDataInstrumented is BenchmarkForwardData with a
// telemetry registry and counters attached — the delta against the
// uninstrumented run is the whole observability tax on the hot path
// (expected: a couple of atomic adds, zero allocations).
func BenchmarkForwardDataInstrumented(b *testing.B) {
	n := benchNode(b, benchKnown)
	n.setTelemetry(telemetry.NewRegistry(), nil)
	pkt := &wire.Packet{
		Type: wire.TypeData, TTL: wire.DefaultTTL,
		Dst: ident.FromUint64(3500), Src: ident.FromUint64(77),
		Payload: make([]byte, 64),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.forward(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestForwardInstrumentedZeroAllocs pins the observability tax at zero
// allocations per forwarded packet: counters are pre-resolved atomic
// handles, not map lookups, so attaching a registry must not put the
// data path on the heap. The same holds for the read loop's whole body
// on a transit datagram: decode, handle, forward.
func TestForwardInstrumentedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode defeats sync.Pool reuse, so alloc counts are meaningless")
	}
	n := benchNode(t, benchKnown)
	reg := telemetry.NewRegistry()
	n.setTelemetry(reg, nil)
	pkt := &wire.Packet{
		Type: wire.TypeData, TTL: wire.DefaultTTL,
		Dst: ident.FromUint64(3500), Src: ident.FromUint64(77),
		Payload: make([]byte, 64),
	}
	// Warm the send-buffer pool before measuring.
	if err := n.forward(pkt); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := n.forward(pkt); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("instrumented forward allocates %.2f per op, want 0", allocs)
	}
	// The read loop's body on a transit datagram: decode into the
	// loop's packet, then handle it with the loop's Actions.
	raw, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var rx wire.Packet
	a := getActs()
	defer putActs(a)
	before := reg.Counter(metricForward).Value()
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := rx.DecodeFromBytes(raw); err != nil {
			t.Fatal(err)
		}
		n.handle(&rx, "peer:77", a)
	}); allocs != 0 {
		t.Fatalf("decode and handle of a transit datagram allocates %.2f per op, want 0", allocs)
	}
	if got := reg.Counter(metricForward).Value(); got == 0 || got == before {
		t.Fatal("forward counter did not move")
	}
}

// BenchmarkHandleDataForward measures the full receive hot path for a
// transit packet, exactly as the read loop runs it: decode the
// datagram, dispatch, pick the next hop, re-marshal, send.
func BenchmarkHandleDataForward(b *testing.B) {
	n := benchNode(b, benchKnown)
	raw, err := (&wire.Packet{
		Type: wire.TypeData, TTL: wire.DefaultTTL,
		Dst: ident.FromUint64(3500), Src: ident.FromUint64(77),
		Payload: make([]byte, 64),
	}).Marshal()
	if err != nil {
		b.Fatal(err)
	}
	var pkt wire.Packet
	a := getActs()
	defer putActs(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pkt.DecodeFromBytes(raw); err != nil {
			b.Fatal(err)
		}
		n.handle(&pkt, "peer:77", a)
	}
}

// BenchmarkHandleDataDeliver measures the receive hot path for a packet
// addressed to the local node: decode, dispatch, copy the payload to
// the application channel (drained by a cleanup-managed consumer).
func BenchmarkHandleDataDeliver(b *testing.B) {
	n := benchNode(b, benchKnown)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-n.Deliveries():
			case <-stop:
				return
			}
		}
	}()
	b.Cleanup(func() { close(stop) })
	raw, err := (&wire.Packet{
		Type: wire.TypeData, TTL: wire.DefaultTTL,
		Dst: ident.FromUint64(1000), Src: ident.FromUint64(77),
		Payload: make([]byte, 64),
	}).Marshal()
	if err != nil {
		b.Fatal(err)
	}
	var pkt wire.Packet
	a := getActs()
	defer putActs(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pkt.DecodeFromBytes(raw); err != nil {
			b.Fatal(err)
		}
		n.handle(&pkt, "peer:77", a)
	}
}

// BenchmarkStabilizeRound measures one stabilization round with a full
// known set: gossip sampling, probe selection, and two control sends.
func BenchmarkStabilizeRound(b *testing.B) {
	n := benchNode(b, benchKnown)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.tick((*proto.Core).TickStabilize)
	}
}

// BenchmarkLearnAtCapacity measures remembering a fresh peer into a
// full known set, where every learn must pick an eviction victim.
func BenchmarkLearnAtCapacity(b *testing.B) {
	n := benchNode(b, benchKnown)
	b.ReportAllocs()
	b.ResetTimer()
	n.mu.Lock()
	for i := 0; i < b.N; i++ {
		n.core.Learn(proto.Peer{ID: ident.FromUint64(1<<32 + uint64(i)), Addr: "peer:fresh"})
	}
	n.mu.Unlock()
}
