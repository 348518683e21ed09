package overlay

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"rofl/internal/ident"
	"rofl/internal/proto"
	"rofl/internal/wire"
)

const joinTimeout = 2 * time.Second

// startRing boots n zero-config nodes on localhost and joins them
// sequentially.
func startRing(t *testing.T, n int) []*Node {
	t.Helper()
	return startRingWith(t, n, Config{})
}

// startRingWith is startRing with every node built from cfg.
func startRingWith(t *testing.T, n int, cfg Config) []*Node {
	t.Helper()
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		node := newTestNode(t, fmt.Sprintf("overlay-node-%d", i), cfg)
		if i == 0 {
			node.Bootstrap()
		} else {
			if err := node.Join(nodes[0].Addr(), joinTimeout); err != nil {
				t.Fatalf("join node %d: %v", i, err)
			}
		}
		nodes = append(nodes, node)
	}
	return nodes
}

// newTestNode builds one node labelled name from cfg, closed at test
// end.
func newTestNode(t *testing.T, name string, cfg Config) *Node {
	t.Helper()
	node, err := New(ident.FromString(name), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

// ringFault describes the first node whose successor or predecessor
// pointer departs from the sorted order, or returns "" for a consistent
// ring.
func ringFault(nodes []*Node) string {
	sorted := append([]*Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID().Less(sorted[j].ID()) })
	for i, node := range sorted {
		want := sorted[(i+1)%len(sorted)].ID()
		got, _, ok := node.Successor()
		if !ok {
			return fmt.Sprintf("node %s has no successor", node.ID().Short())
		}
		if got != want {
			return fmt.Sprintf("node %s successor = %s want %s", node.ID().Short(), got.Short(), want.Short())
		}
		wantPred := sorted[(i-1+len(sorted))%len(sorted)].ID()
		gotPred, _, ok := node.Predecessor()
		if !ok || gotPred != wantPred {
			return fmt.Sprintf("node %s predecessor = %s want %s", node.ID().Short(), gotPred.Short(), wantPred.Short())
		}
	}
	return ""
}

// ringIsConsistent reports whether successor and predecessor pointers
// trace the sorted order.
func ringIsConsistent(nodes []*Node) bool { return ringFault(nodes) == "" }

// ringConsistent asserts ringIsConsistent, polling it up to a deadline
// first: Join returns when the predecessor's reply arrives, while that
// predecessor's notify to the joiner's successor may still be in flight.
func ringConsistent(t *testing.T, nodes []*Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ringIsConsistent(nodes) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if fault := ringFault(nodes); fault != "" {
		t.Fatal(fault)
	}
}

func TestTwoNodeRing(t *testing.T) {
	nodes := startRing(t, 2)
	ringConsistent(t, nodes)
}

func TestEightNodeRingConsistent(t *testing.T) {
	nodes := startRing(t, 8)
	ringConsistent(t, nodes)
}

func TestDataDeliveryAllPairs(t *testing.T) {
	nodes := startRing(t, 6)
	for i, src := range nodes {
		for j, dst := range nodes {
			if i == j {
				continue
			}
			msg := []byte(fmt.Sprintf("hello %d->%d", i, j))
			if err := src.Send(dst.ID(), msg); err != nil {
				t.Fatal(err)
			}
			select {
			case d := <-dst.Deliveries():
				if string(d.Payload) != string(msg) {
					t.Fatalf("payload = %q want %q", d.Payload, msg)
				}
				if d.Src != src.ID() {
					t.Fatalf("src = %s want %s", d.Src.Short(), src.ID().Short())
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("packet %d->%d not delivered", i, j)
			}
		}
	}
}

func TestSendToAbsentIDIsDropped(t *testing.T) {
	nodes := startRing(t, 3)
	if err := nodes[0].Send(ident.FromString("ghost"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Nothing should arrive anywhere.
	for _, n := range nodes {
		select {
		case d := <-n.Deliveries():
			t.Fatalf("ghost packet delivered to %s: %q", n.ID().Short(), d.Payload)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func TestJoinViaNonBootstrapMember(t *testing.T) {
	nodes := startRing(t, 4)
	id := ident.FromString("late-joiner")
	late := newTestNode(t, "late-joiner", Config{})
	// Join through the last node, not the bootstrap.
	if err := late.Join(nodes[3].Addr(), joinTimeout); err != nil {
		t.Fatal(err)
	}
	ringConsistent(t, append(nodes, late))
	// And the late joiner is reachable.
	if err := nodes[1].Send(id, []byte("welcome")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-late.Deliveries():
		if string(d.Payload) != "welcome" {
			t.Fatalf("payload = %q", d.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("late joiner unreachable")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	n, err := New(ident.FromString("solo"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	n.Bootstrap()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseThenLateEventsAreNoOps pins the teardown contract: once
// Close returns, every late event a racing timer or reader could still
// fire — a maintenance tick, a liveness tick, an arriving datagram, an
// API call — must be a silent no-op. Before the core extraction a late
// stabilize tick could race node teardown; now every entry point checks
// the closed flag under the same lock that guards the core.
func TestCloseThenLateEventsAreNoOps(t *testing.T) {
	a, err := New(ident.FromString("late-a"), Config{Stabilize: 5 * time.Millisecond, EnableLiveness: true})
	if err != nil {
		t.Fatal(err)
	}
	a.Bootstrap()
	b, err := New(ident.FromString("late-b"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := b.Join(a.Addr(), joinTimeout); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Late internal events, exactly as the maintenance goroutines would
	// fire them after losing the race with Close.
	a.tick((*proto.Core).TickStabilize)
	a.tick((*proto.Core).TickLiveness)

	// A datagram that arrives after Close is dropped, even one addressed
	// to the node itself (which would otherwise deliver).
	pkt := &wire.Packet{
		Type: wire.TypeData, TTL: wire.DefaultTTL,
		Src: b.ID(), Dst: a.ID(), Payload: []byte("late"),
	}
	acts := getActs()
	a.handle(pkt, b.Addr(), acts)
	putActs(acts)
	select {
	case d, ok := <-a.Deliveries():
		if ok {
			t.Fatalf("post-Close delivery of %q", d.Payload)
		}
		// Channel closed by Close: correct.
	default:
	}

	// Public API surfaces report ErrClosed instead of acting.
	if err := a.Send(b.ID(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	if err := a.Join(b.Addr(), 100*time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("Join after Close = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// The peer stays healthy: late events on the corpse never wedged a
	// lock or crashed a goroutine. Sending toward the dead node is a
	// silent drop, like UDP — not an error, not a hang.
	if len(b.Ring()) == 0 {
		t.Fatal("survivor lost its ring state")
	}
	if err := b.Send(a.ID(), []byte("into the void")); err != nil {
		t.Fatal(err)
	}
}

// closeWithin closes n and fails the test if Close does not return in
// time: Close waits for every driver goroutine, so a loop that ignores
// its stop channel hangs it.
func closeWithin(t *testing.T, n *Node, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- n.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("Close did not return within %v: a driver goroutine ignores its stop", d)
	}
}

// Every goroutine a node starts — the read loop and both maintenance
// loops — is joined by Close, so repeated lifecycles leave the
// goroutine count where it was.
func TestNodeCloseJoinsDriverGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := Config{Stabilize: 5 * time.Millisecond, EnableLiveness: true}
	for i := 0; i < 5; i++ {
		boot, err := New(ident.FromString(fmt.Sprintf("lifecycle-boot-%d", i)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		boot.Bootstrap()
		n, err := New(ident.FromString(fmt.Sprintf("lifecycle-%d", i)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Join(boot.Addr(), joinTimeout); err != nil {
			t.Fatal(err)
		}
		closeWithin(t, n, 5*time.Second)
		closeWithin(t, boot, 5*time.Second)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across node lifecycles: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gatedTransport holds every Send until release is closed, reporting
// the kind of each packet that enters.
type gatedTransport struct {
	*benchTransport
	entered chan wire.Type
	release chan struct{}
}

func (g *gatedTransport) Send(addr string, p []byte) error {
	var pkt wire.Packet
	if pkt.DecodeFromBytes(p) == nil {
		select {
		case g.entered <- pkt.Type:
		default:
		}
	}
	<-g.release
	return nil
}

// The node lock guards the core, never a transmit: a data send and a
// stabilize tick both stuck in the transport leave the node readable.
// A transmit under the lock would keep the second sender out of the
// transport and block Status and SuccessorGroup behind the first.
func TestNoTransmitUnderNodeLock(t *testing.T) {
	// Two senders can be held at once: the data send and the one
	// stabilize loop, each stopped at its first packet.
	tr := &gatedTransport{benchTransport: newBenchTransport(), entered: make(chan wire.Type, 2), release: make(chan struct{})}
	n, err := New(ident.FromUint64(1000), Config{Transport: tr, Stabilize: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	defer close(tr.release) // before Close, which waits for the blocked senders
	n.mu.Lock()
	n.core.InstallRing([]proto.Peer{{ID: ident.FromUint64(2000), Addr: "peer:2000"}, {ID: ident.FromUint64(3000), Addr: "peer:3000"}}, nil)
	n.mu.Unlock()
	go n.Send(ident.FromUint64(2500), []byte("held"))

	blocked := map[wire.Type]bool{}
	timeout := time.After(5 * time.Second)
	for !blocked[wire.TypeData] || !blocked[wire.TypeStabilize] {
		select {
		case typ := <-tr.entered:
			blocked[typ] = true
		case <-timeout:
			t.Fatalf("senders in the transport: %v; want a data send and a stabilize tick at once (a transmit under the node lock keeps the second out)", blocked)
		}
	}
	done := make(chan struct{})
	go func() {
		n.Status()
		n.SuccessorGroup()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Status and SuccessorGroup blocked while sends wait in the transport")
	}
}

func TestJoinTimeoutAgainstDeadAddress(t *testing.T) {
	n := newTestNode(t, "lost", Config{})
	// 127.0.0.1:1 is almost certainly not listening; the join must time
	// out rather than hang.
	if err := n.Join("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("join against dead address should fail")
	}
}

func TestRingDebugString(t *testing.T) {
	nodes := startRing(t, 2)
	if len(nodes[0].Ring()) == 0 {
		t.Fatal("Ring() must render")
	}
}

func TestGateDropsUnauthorized(t *testing.T) {
	authorized := ident.FromString("overlay-node-0") // nodes[0]'s label
	// Every node carries the gate; only deliveries at dst are exercised.
	nodes := startRingWith(t, 3, Config{Gate: func(src ident.ID, capability []byte) error {
		if src == authorized && string(capability) == "token" {
			return nil
		}
		return fmt.Errorf("denied")
	}})
	dst := nodes[2]
	// Unauthorized sender: dropped.
	if err := nodes[1].Send(dst.ID(), []byte("sneaky")); err != nil {
		t.Fatal(err)
	}
	// Right sender, no token: dropped.
	if err := nodes[0].Send(dst.ID(), []byte("no token")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-dst.Deliveries():
		t.Fatalf("unauthorized packet delivered: %q", d.Payload)
	case <-time.After(200 * time.Millisecond):
	}
	// Right sender with the token: delivered.
	if err := nodes[0].SendWithCapability(dst.ID(), []byte("hello"), []byte("token")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-dst.Deliveries():
		if string(d.Payload) != "hello" {
			t.Fatalf("payload %q", d.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("authorized packet not delivered")
	}
}

func TestConcurrentJoinsConvergeWithStabilization(t *testing.T) {
	// Join 7 nodes through the bootstrap CONCURRENTLY — splices race —
	// and let stabilization repair the ring.
	cfg := Config{Stabilize: 25 * time.Millisecond}
	boot := newTestNode(t, "concurrent-boot", cfg)
	boot.Bootstrap()

	const n = 7
	nodes := []*Node{boot}
	errs := make(chan error, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node, err := New(ident.FromString(fmt.Sprintf("concurrent-%d", i)), cfg)
			if err != nil {
				errs <- err
				return
			}
			t.Cleanup(func() { node.Close() })
			if err := node.Join(boot.Addr(), 3*time.Second); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			nodes = append(nodes, node)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Poll until the ring is consistent (or time out).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ringIsConsistent(nodes) {
			break
		}
		if time.Now().After(deadline) {
			for _, node := range nodes {
				t.Logf("%s: %v", node.ID().Short(), node.Ring())
			}
			t.Fatal("stabilization did not converge")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// After convergence, all-pairs delivery works.
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			if err := src.Send(dst.ID(), []byte("post-stabilize")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-dst.Deliveries():
			case <-time.After(2 * time.Second):
				t.Fatalf("delivery %s->%s failed after convergence", src.ID().Short(), dst.ID().Short())
			}
		}
	}
}

func TestStabilizeIdempotentOnConsistentRing(t *testing.T) {
	nodes := startRingWith(t, 4, Config{Stabilize: 20 * time.Millisecond})
	time.Sleep(300 * time.Millisecond)
	ringConsistent(t, nodes)
}

func TestSuccessorFailoverHealsRing(t *testing.T) {
	nodes := startRingWith(t, 5, Config{Stabilize: 20 * time.Millisecond})
	// Wait until every node's successor group has fallback entries —
	// failover needs group depth, and group refresh rides on
	// stabilization replies (condition-based to stay robust under CPU
	// starvation).
	warm := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			if len(n.SuccessorGroup()) < 2 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(warm) {
			t.Fatal("successor groups never filled")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Kill one non-bootstrap node.
	victim := nodes[2]
	victim.Close()
	survivors := append(append([]*Node{}, nodes[:2]...), nodes[3:]...)

	deadline := time.Now().Add(15 * time.Second)
	for {
		if ringIsConsistent(survivors) {
			break
		}
		if time.Now().After(deadline) {
			for _, n := range survivors {
				t.Logf("%s: %v", n.ID().Short(), n.Ring())
			}
			t.Fatal("ring did not heal after successor failure")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Survivors can still reach each other.
	for _, src := range survivors {
		for _, dst := range survivors {
			if src == dst {
				continue
			}
			if err := src.Send(dst.ID(), []byte("healed")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-dst.Deliveries():
			case <-time.After(5 * time.Second):
				t.Fatalf("delivery %s->%s failed after heal", src.ID().Short(), dst.ID().Short())
			}
		}
	}
}
