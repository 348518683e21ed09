package overlay

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"rofl/internal/ident"
	"rofl/internal/netem"
	"rofl/internal/telemetry"
)

// syncBuf is an io.Writer the test can read while the node writes.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// countEvents parses the JSON lines in buf and counts events with the
// given name, checking every line parses.
func countEvents(t *testing.T, buf *syncBuf, event string) int {
	t.Helper()
	count := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line is not JSON: %v\n%s", err, line)
		}
		if ev["event"] == event {
			count++
		}
	}
	return count
}

// waitSuccessorChange polls until node's successor is no longer dead,
// returning how long detection took.
func waitSuccessorChange(t *testing.T, node *Node, dead ident.ID, timeout time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		if succ, _, ok := node.Successor(); ok && succ != dead {
			return time.Since(start)
		}
		if time.Now().After(deadline) {
			t.Fatalf("successor %s never evicted within %v", dead.Short(), timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLivenessDetectsFailureTenTimesFaster is the BFD acceptance chaos
// test: the same three-node ring loses the same successor twice — once
// detected by the stabilize timer alone, once by the adaptive liveness
// probes — and the probe path must be at least 10× faster.
func TestLivenessDetectsFailureTenTimesFaster(t *testing.T) {
	const stabilizeEvery = 150 * time.Millisecond

	run := func(withLiveness bool) time.Duration {
		fabric := netem.NewNetwork(42)
		defer fabric.Close()
		nodes, _ := startChaosCluster(t, fabric, 3, 10*time.Second, uniform(Config{
			Stabilize:      stabilizeEvery,
			EnableLiveness: withLiveness,
			Liveness:       LivenessParams{MinTx: 5 * time.Millisecond, MinRx: 2 * time.Millisecond, Multiplier: 3},
		}))
		waitConverged(t, nodes, 20*time.Second, "pre-failure convergence")
		// Find the node whose successor is nodes[1], then kill nodes[1].
		victim := nodes[1]
		var watcher *Node
		for _, node := range nodes {
			if succ, _, ok := node.Successor(); ok && succ == victim.ID() {
				watcher = node
				break
			}
		}
		if watcher == nil {
			t.Fatal("no node points at the victim")
		}
		victim.Close()
		return waitSuccessorChange(t, watcher, victim.ID(), 30*time.Second)
	}

	slow := run(false)
	fast := run(true)
	t.Logf("stabilize-timer eviction: %v; liveness detection: %v (%.1fx)", slow, fast, float64(slow)/float64(fast))
	if fast*10 > slow {
		t.Fatalf("liveness detection %v is not 10x faster than stabilize eviction %v", fast, slow)
	}
}

// TestDeadSuccessorEmitsOneEvictionEvent pins the regression the
// telemetry refactor fixes: a dead successor must surface as exactly
// one structured eviction event and one counter increment — not zero
// (the old silent path) and not one per stabilize round.
func TestDeadSuccessorEmitsOneEvictionEvent(t *testing.T) {
	fabric := netem.NewNetwork(11)
	defer fabric.Close()
	nodes, _ := startChaosCluster(t, fabric, 2, 5*time.Second, uniform(Config{Stabilize: 20 * time.Millisecond}))
	a, b := nodes[0], nodes[1]

	reg := telemetry.NewRegistry()
	var buf syncBuf
	a.setTelemetry(reg, telemetry.NewEventLog(&buf))
	waitConverged(t, nodes, 10*time.Second, "two-node convergence")

	b.Close()
	waitSuccessorChange(t, a, b.ID(), 10*time.Second)
	// Keep stabilizing well past the eviction: later rounds must not
	// re-report the same death.
	time.Sleep(300 * time.Millisecond)

	if got := countEvents(t, &buf, "succ_evicted"); got != 1 {
		t.Fatalf("succ_evicted events = %d, want exactly 1\nevents:\n%s", got, buf.String())
	}
	if got := reg.Counter(metricEvictSucc).Value(); got != 1 {
		t.Fatalf("eviction counter = %d, want 1", got)
	}
}

// TestRequestTimeoutEmitsEventAndCounter pins the retry-exhaustion
// path: a join toward a black hole must fail with errTimeout AND leave
// a structured trace — the timeout counter, the retransmit counter, and
// a request_timeout event.
func TestRequestTimeoutEmitsEventAndCounter(t *testing.T) {
	fabric := netem.NewNetwork(5)
	defer fabric.Close()
	ep, err := fabric.Endpoint("em://lonely")
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNode(t, "lonely", Config{
		Transport: ep,
		Retry:     RetryPolicy{Initial: 10 * time.Millisecond, Max: 40 * time.Millisecond, Multiplier: 2},
	})
	reg := telemetry.NewRegistry()
	var buf syncBuf
	n.setTelemetry(reg, telemetry.NewEventLog(&buf))

	if err := n.Join("em://void", 200*time.Millisecond); err == nil {
		t.Fatal("join to a black hole must time out")
	}
	if got := reg.Counter(metricReqTimeout).Value(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
	if got := reg.Counter(metricRetransmit).Value(); got == 0 {
		t.Fatal("retransmit counter must count the retried attempts")
	}
	if got := countEvents(t, &buf, "request_timeout"); got != 1 {
		t.Fatalf("request_timeout events = %d, want 1\n%s", got, buf.String())
	}
}

// A policy that leaves Multiplier at zero retries at a constant Initial
// until the deadline; it used to compute a zero wait after the first
// retransmit and report the budget exhausted at once.
func TestJoinRetriesWithMultiplierBelowOne(t *testing.T) {
	fabric := netem.NewNetwork(6)
	defer fabric.Close()
	ep, err := fabric.Endpoint("em://patient")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 400 * time.Millisecond
	n := newTestNode(t, "patient", Config{
		Transport: ep,
		Retry:     RetryPolicy{Initial: 10 * time.Millisecond, Max: 50 * time.Millisecond},
	})
	reg := telemetry.NewRegistry()
	n.setTelemetry(reg, nil)

	start := time.Now()
	if err := n.Join("em://silent", budget); !errors.Is(err, errTimeout) {
		t.Fatalf("join through a silent address = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < budget/2 {
		t.Fatalf("join gave up after %v of a %v budget", elapsed, budget)
	}
	if got := reg.Counter(metricRetransmit).Value(); got < 5 {
		t.Fatalf("retransmits = %d, want at least 5 at a constant 10ms wait", got)
	}
}

// TestLivenessIntervalNegotiation pins the BFD negotiation rule: the
// probe interval toward a successor is max(local MinTx, the
// successor's advertised MinRx), so a peer that advertises a slow
// receive floor slows its prober down.
func TestLivenessIntervalNegotiation(t *testing.T) {
	fabric := netem.NewNetwork(9)
	defer fabric.Close()
	// B (node 1) refuses probes faster than 80ms; A wants to probe at 5ms.
	minRx := []time.Duration{2 * time.Millisecond, 80 * time.Millisecond}
	nodes, _ := startChaosCluster(t, fabric, 2, 5*time.Second, func(i int) Config {
		return Config{
			Stabilize:      20 * time.Millisecond,
			EnableLiveness: true,
			Liveness:       LivenessParams{MinTx: 5 * time.Millisecond, MinRx: minRx[i], Multiplier: 3},
		}
	})
	a := nodes[0]
	waitConverged(t, nodes, 10*time.Second, "two-node convergence")

	deadline := time.Now().Add(5 * time.Second)
	for a.livenessInterval() != 80*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("negotiated interval = %v, want 80ms (remote MinRx)", a.livenessInterval())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLivenessSurvivesLossWithoutFalsePositive runs the liveness
// detector over a 10%-lossy link: single lost probes must not evict a
// live successor (the detect multiplier absorbs them).
func TestLivenessSurvivesLossWithoutFalsePositive(t *testing.T) {
	fabric := netem.NewNetwork(77)
	defer fabric.Close()
	fabric.SetDefaults(netem.LinkParams{Loss: 0.10, Latency: time.Millisecond})
	nodes, _ := startChaosCluster(t, fabric, 3, 20*time.Second, uniform(Config{
		Stabilize:      25 * time.Millisecond,
		EnableLiveness: true,
		Liveness:       LivenessParams{MinTx: 10 * time.Millisecond, MinRx: 5 * time.Millisecond, Multiplier: 5},
	}))
	reg := telemetry.NewRegistry()
	for _, node := range nodes {
		node.setTelemetry(reg, nil)
	}
	waitConverged(t, nodes, 20*time.Second, "convergence at 10% loss")

	// Hold the converged ring under loss for ~40 probe windows; no
	// live successor may be evicted by the liveness path.
	time.Sleep(500 * time.Millisecond)
	if got := reg.Counter(metricLivenessFailover).Value(); got != 0 {
		t.Fatalf("liveness evicted %d live successors under 10%% loss", got)
	}
	if got := reg.Counter(metricLivenessProbe).Value(); got == 0 {
		t.Fatal("no probes were sent")
	}
	if !ringIsConsistent(nodes) {
		t.Fatal("ring lost consistency under probing")
	}
}

// TestInstrumentedTrafficCounters drives data through a 4-node ring and
// checks the forwarding counters add up: every node that originated or
// relayed traffic shows forwards, and the destination shows deliveries.
func TestInstrumentedTrafficCounters(t *testing.T) {
	fabric := netem.NewNetwork(21)
	defer fabric.Close()
	nodes, _ := startChaosCluster(t, fabric, 4, 10*time.Second, uniform(Config{Stabilize: 20 * time.Millisecond}))
	regs := make([]*telemetry.Registry, len(nodes))
	for i, node := range nodes {
		regs[i] = telemetry.NewRegistry()
		node.setTelemetry(regs[i], nil)
	}
	waitConverged(t, nodes, 10*time.Second, "ring convergence")

	for i, src := range nodes {
		for j, dst := range nodes {
			if i == j {
				continue
			}
			if err := src.Send(dst.ID(), []byte("ping")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-dst.Deliveries():
			case <-time.After(5 * time.Second):
				t.Fatalf("delivery %d->%d timed out", i, j)
			}
		}
	}
	for i := range nodes {
		if got := regs[i].Counter(metricForward).Value(); got == 0 {
			t.Fatalf("node %d forwarded nothing", i)
		}
		if got := regs[i].Counter(metricDelivered).Value(); got != uint64(len(nodes)-1) {
			t.Fatalf("node %d delivered %d, want %d", i, got, len(nodes)-1)
		}
	}
}
