package overlay

import (
	"fmt"
	"testing"
	"time"

	"rofl/internal/netem"
	"rofl/internal/proto"
	"rofl/internal/wire"
)

// chaosRetry is a fast retransmission schedule for emulated-fabric tests
// (real deployments keep the LAN-tuned default).
func chaosRetry() RetryPolicy {
	return RetryPolicy{Initial: 40 * time.Millisecond, Max: 400 * time.Millisecond, Multiplier: 2}
}

// uniform gives every node of a chaos cluster the same config.
func uniform(cfg Config) func(int) Config { return func(int) Config { return cfg } }

// startChaosCluster attaches n overlay nodes to the fabric and joins
// them sequentially through node 0 — every join riding the fabric's
// fault schedule. Node i is built from cfg(i) plus its fabric endpoint
// and the chaos retry policy.
func startChaosCluster(t *testing.T, fabric *netem.Network, n int, joinTimeout time.Duration, cfg func(i int) Config) ([]*Node, []string) {
	t.Helper()
	nodes := make([]*Node, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("em://node-%d", i)
		ep, err := fabric.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg(i)
		c.Transport, c.Retry = ep, chaosRetry()
		node := newTestNode(t, fmt.Sprintf("chaos-%d", i), c)
		if i == 0 {
			node.Bootstrap()
		} else {
			if err := node.Join(addrs[0], joinTimeout); err != nil {
				t.Fatalf("join node %d: %v", i, err)
			}
		}
		nodes = append(nodes, node)
		addrs = append(addrs, addr)
	}
	return nodes, addrs
}

// waitMembership blocks until every node has heard of every other —
// stabilize-time gossip disseminates membership beyond ring neighbours,
// and partition recovery depends on each side knowing its own members.
func waitMembership(t *testing.T, nodes []*Node, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, n := range nodes {
			if n.Status().KnownPeers < len(nodes)-1 {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("membership did not disseminate to all nodes")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func waitConverged(t *testing.T, nodes []*Node, timeout time.Duration, phase string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ringIsConsistent(nodes) {
		if time.Now().After(deadline) {
			for _, n := range nodes {
				t.Logf("%s: %v", n.ID().Short(), n.Ring())
			}
			t.Fatalf("%s: ring did not converge within %v", phase, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestChaosClusterLossPartitionHeal is the acceptance chaos run: a
// 9-node in-process cluster at 20% injected loss completes every join,
// converges, survives a 2-way partition (each side reconverges into its
// own ring), and after healing re-merges into one ring over which
// end-to-end delivery succeeds for every pair. The fault schedule —
// which packets drop, duplicate, or arrive late — is fully determined by
// the netem seed.
func TestChaosClusterLossPartitionHeal(t *testing.T) {
	fabric := netem.NewNetwork(0xC0FFEE)
	defer fabric.Close()
	fabric.SetDefaults(netem.LinkParams{
		Loss:    0.20,
		Latency: 2 * time.Millisecond,
		Jitter:  2 * time.Millisecond,
	})

	const n = 9
	// Phase 1: every join must complete despite 20% loss (startChaos
	// fails the test on any join error).
	nodes, addrs := startChaosCluster(t, fabric, n, 30*time.Second, uniform(Config{Stabilize: 20 * time.Millisecond}))
	waitConverged(t, nodes, 30*time.Second, "initial convergence at 20% loss")
	waitMembership(t, nodes, 30*time.Second)

	// Phase 2: a backhoe takes out the link between the first four
	// nodes and the rest. Each side must evict the other and settle
	// into its own consistent ring, still under loss.
	fabric.Partition("backhoe", addrs[:4])
	deadline := time.Now().Add(45 * time.Second)
	for !ringIsConsistent(nodes[:4]) || !ringIsConsistent(nodes[4:]) {
		if time.Now().After(deadline) {
			for _, node := range nodes {
				t.Logf("%s: %v", node.ID().Short(), node.Ring())
			}
			t.Fatal("sides did not settle into separate rings during partition")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Phase 3: the partition heals and the loss clears; repair probes
	// must re-merge the two rings into one.
	fabric.Heal("backhoe")
	fabric.SetDefaults(netem.LinkParams{Latency: time.Millisecond})
	waitConverged(t, nodes, 60*time.Second, "re-merge after heal")

	// End-to-end delivery works for every ordered pair.
	for i, src := range nodes {
		for j, dst := range nodes {
			if i == j {
				continue
			}
			msg := []byte(fmt.Sprintf("after-heal %d->%d", i, j))
			if err := src.Send(dst.ID(), msg); err != nil {
				t.Fatal(err)
			}
			select {
			case d := <-dst.Deliveries():
				if string(d.Payload) != string(msg) {
					t.Fatalf("payload = %q want %q", d.Payload, msg)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("delivery %d->%d failed after heal", i, j)
			}
		}
	}

	if s := fabric.TotalStats(); s.Lost == 0 || s.PartitionDropped == 0 {
		t.Fatalf("chaos run injected no faults? %+v", s)
	}
}

// TestChaosDeliveryAfterKill: every survivor remembers the dead node in
// its pointer cache, which now carries packets on every hop. Once the
// ring reconverges around the corpse, a single send between any two
// survivors must arrive — no packet may be handed to the dead node.
func TestChaosDeliveryAfterKill(t *testing.T) {
	fabric := netem.NewNetwork(0xDEAD)
	defer fabric.Close()
	fabric.SetDefaults(netem.LinkParams{Latency: time.Millisecond})

	const n = 8
	nodes, _ := startChaosCluster(t, fabric, n, 10*time.Second,
		uniform(Config{Stabilize: 20 * time.Millisecond, EnableLiveness: true}))
	waitConverged(t, nodes, 30*time.Second, "initial convergence")
	waitMembership(t, nodes, 30*time.Second)

	victim := nodes[n/2]
	victim.Close()
	survivors := append(append([]*Node{}, nodes[:n/2]...), nodes[n/2+1:]...)
	waitConverged(t, survivors, 30*time.Second, "reconvergence after kill")

	for i, src := range survivors {
		for j, dst := range survivors {
			if i == j {
				continue
			}
			msg := []byte(fmt.Sprintf("after-kill %d->%d", i, j))
			if err := src.Send(dst.ID(), msg); err != nil {
				t.Fatal(err)
			}
			select {
			case d := <-dst.Deliveries():
				if string(d.Payload) != string(msg) {
					t.Fatalf("payload = %q want %q", d.Payload, msg)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("delivery %s->%s lost after the kill", src.ID().Short(), dst.ID().Short())
			}
		}
	}
}

// TestJoinAndSendUnderThirtyPercentLoss exercises the retry path harder:
// five nodes join through 30% loss, converge, and deliver data with an
// application-level retry loop.
func TestJoinAndSendUnderThirtyPercentLoss(t *testing.T) {
	fabric := netem.NewNetwork(7)
	defer fabric.Close()
	fabric.SetDefaults(netem.LinkParams{Loss: 0.30, Latency: time.Millisecond})

	nodes, _ := startChaosCluster(t, fabric, 5, 30*time.Second, uniform(Config{Stabilize: 20 * time.Millisecond}))
	waitConverged(t, nodes, 30*time.Second, "convergence at 30% loss")

	// Data packets are fire-and-forget; under loss the application
	// retries. Every pair must get through within a bounded number of
	// attempts.
	src, dst := nodes[1], nodes[4]
	delivered := false
	for attempt := 0; attempt < 40 && !delivered; attempt++ {
		if err := src.Send(dst.ID(), []byte("persistent")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-dst.Deliveries():
			delivered = true
		case <-time.After(150 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("data never delivered under 30% loss despite 40 attempts")
	}
}

// TestJoinSurvivesLostReply pins the idempotent-retry path: the very
// first join reply is always lost (100% loss on the reply link), so the
// joiner must retransmit and the predecessor must re-splice without
// corrupting the ring.
func TestJoinSurvivesLostReply(t *testing.T) {
	fabric := netem.NewNetwork(3)
	defer fabric.Close()
	boot, err := fabric.Endpoint("em://boot")
	if err != nil {
		t.Fatal(err)
	}
	join, err := fabric.Endpoint("em://joiner")
	if err != nil {
		t.Fatal(err)
	}
	bootNode := newTestNode(t, "boot", Config{Transport: boot})
	bootNode.Bootstrap()
	joiner := newTestNode(t, "late", Config{Transport: join, Retry: chaosRetry()})

	// Sever boot→joiner: the join request arrives, the reply vanishes.
	fabric.SetLink("em://boot", "em://joiner", netem.LinkParams{Loss: 1})
	done := make(chan error, 1)
	go func() { done <- joiner.Join("em://boot", 20*time.Second) }()
	time.Sleep(150 * time.Millisecond) // a few doomed attempts
	fabric.ClearLink("em://boot", "em://joiner")
	if err := <-done; err != nil {
		t.Fatalf("join must survive lost replies: %v", err)
	}
	// The replayed splices must not have corrupted the two-node ring.
	if err := CheckRing([]*Node{bootNode, joiner}); err != nil {
		t.Fatalf("two-node ring after retried join: %v", err)
	}
}

// TestDroppedDeliveriesCounter pins the non-blocking delivery path: a
// consumer that never drains cannot wedge the read loop, and the drops
// are counted.
func TestDroppedDeliveriesCounter(t *testing.T) {
	fabric := netem.NewNetwork(1)
	defer fabric.Close()
	nodes, _ := startChaosCluster(t, fabric, 2, 5*time.Second, uniform(Config{}))
	a, b := nodes[0], nodes[1]

	const total = 100 // deliveries channel buffers 64
	for i := 0; i < total; i++ {
		if err := a.Send(b.ID(), []byte("flood")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.DroppedDeliveries() < total-64 {
		if time.Now().After(deadline) {
			t.Fatalf("dropped = %d, want %d (read loop stalled?)", b.DroppedDeliveries(), total-64)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The read loop is still alive: one more packet is processed (and
	// counted, since the buffer is still full).
	if err := a.Send(b.ID(), []byte("alive")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for b.DroppedDeliveries() < total-64+1 {
		if time.Now().After(deadline) {
			t.Fatal("read loop did not process traffic after drops")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestTableBounded pins the in-flight cap: the 65th concurrent
// request must fail fast with errBusy instead of growing the table.
func TestRequestTableBounded(t *testing.T) {
	fabric := netem.NewNetwork(1)
	defer fabric.Close()
	ep, err := fabric.Endpoint("em://solo")
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNode(t, "solo", Config{Transport: ep})
	ids := make([]uint64, 0, maxInFlight)
	for i := 0; i < maxInFlight; i++ {
		id, _, err := n.register()
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if _, _, err := n.register(); err != errBusy {
		t.Fatalf("table overflow = %v, want ErrBusy", err)
	}
	n.unregister(ids[0])
	if _, _, err := n.register(); err != nil {
		t.Fatalf("register after unregister: %v", err)
	}
}

// TestStaleStabilizeReplyIgnored pins the reply window: a reply whose
// request ID was never issued (or long evicted) must not mutate ring
// state.
func TestStaleStabilizeReplyIgnored(t *testing.T) {
	fabric := netem.NewNetwork(1)
	defer fabric.Close()
	nodes, addrs := startChaosCluster(t, fabric, 3, 5*time.Second, uniform(Config{}))
	// Forge a stabilize reply to node 0 claiming a bogus predecessor,
	// with a request ID node 0 never issued.
	forged, err := fabric.Endpoint("em://forger")
	if err != nil {
		t.Fatal(err)
	}
	defer forged.Close()
	evil := newTestNode(t, "evil", Config{Transport: forged})
	succBefore, _, _ := nodes[0].Successor()
	// An identifier one past node 0's own would win adoption as its new
	// successor — if the reply were accepted.
	tempting := nodes[0].ID()
	tempting[len(tempting)-1]++
	pktReply := &wire.Packet{
		Type: wire.TypeStabilizeReply, TTL: wire.DefaultTTL,
		Dst: nodes[0].ID(), Src: evil.ID(), ReqID: 0xdead,
		Payload: proto.EncodePeers([]proto.Peer{{ID: tempting, Addr: "em://forger"}}),
	}
	if err := evil.send(addrs[0], pktReply); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	succAfter, _, _ := nodes[0].Successor()
	if succBefore != succAfter {
		t.Fatalf("stale reply mutated successor: %s → %s", succBefore.Short(), succAfter.Short())
	}
}
