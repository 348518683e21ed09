package vring

import (
	"math"
	"strings"
	"testing"

	"rofl/internal/ident"
)

// TestProtoRingFabric pins the driver's own fabric, which the
// cross-driver journal gate in internal/proto only sees from outside:
// every step drains the in-flight queue to quiescence, the virtual clock
// advances by whole latencies, and datagrams toward a killed slot are
// dropped on arrival.
func TestProtoRingFabric(t *testing.T) {
	const latency = 2.5
	r := NewProtoRing(latency, nil)
	ids := []ident.ID{ident.FromUint64(100), ident.FromUint64(200), ident.FromUint64(300)}
	for _, id := range ids {
		r.AddNode(id)
	}
	r.Bootstrap(0)
	if r.now != 0 {
		t.Fatalf("clock moved before any datagram: %v", r.now)
	}
	r.Join(1, 0)
	joined := r.now
	if joined < 2*latency {
		t.Fatalf("a join is at least a request and a reply: clock %v", joined)
	}
	r.Join(2, 0)
	for i := 0; i < 3; i++ {
		r.TickStabilize()
	}
	if len(r.inflight) != 0 {
		t.Fatalf("%d datagrams still in flight after a step returned", len(r.inflight))
	}
	if hops := float64(r.now) / latency; hops != math.Trunc(hops) || r.now <= joined {
		t.Fatalf("clock %v is not a later whole number of latencies", r.now)
	}

	delivered := func() int { return strings.Count(r.Journal(), "\ndeliver ") }
	r.Send(2, ids[1], []byte("hello"))
	if delivered() != 1 {
		t.Fatalf("data from slot 2 to slot 1 not delivered:\n%s", r.Journal())
	}
	r.Kill(1)
	r.Send(2, ids[1], []byte("lost"))
	if delivered() != 1 || len(r.inflight) != 0 {
		t.Fatal("a datagram toward a killed slot must vanish on arrival")
	}
}
