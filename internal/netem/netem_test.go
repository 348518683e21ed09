package netem

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// collect drains up to want datagrams from e, giving up after timeout.
func collect(t *testing.T, e *Endpoint, want int, timeout time.Duration) [][]byte {
	t.Helper()
	var out [][]byte
	deadline := time.After(timeout)
	for len(out) < want {
		got := make(chan []byte, 1)
		go func() {
			if p, _, err := e.Recv(); err == nil {
				got <- p
			} else {
				close(got)
			}
		}()
		select {
		case p, ok := <-got:
			if !ok {
				return out
			}
			out = append(out, p)
		case <-deadline:
			return out
		}
	}
	return out
}

func TestPerfectLinkDeliversInOrder(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, 10, 2*time.Second)
	if len(got) != 10 {
		t.Fatalf("delivered %d/10", len(got))
	}
	for i, p := range got {
		if len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("packet %d = %v (out of order on a perfect link)", i, p)
		}
	}
	s := net.stats("a", "b")
	if s.Sent != 10 || s.Delivered != 10 || s.Lost != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRecvReportsSender(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	a, _ := net.Endpoint("alpha")
	b, _ := net.Endpoint("beta")
	if err := a.Send("beta", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	p, from, err := b.Recv()
	if err != nil || string(p) != "hi" || from != "alpha" {
		t.Fatalf("recv = %q from %q err %v", p, from, err)
	}
}

func TestLossIsDeterministicGivenSeed(t *testing.T) {
	run := func() LinkStats {
		net := NewNetwork(42)
		defer net.Close()
		a, _ := net.Endpoint("a")
		if _, err := net.Endpoint("b"); err != nil {
			t.Fatal(err)
		}
		net.SetDefaults(LinkParams{Loss: 0.3, Duplicate: 0.1})
		for i := 0; i < 200; i++ {
			if err := a.Send("b", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		// Zero-latency deliveries ride timers; give them a moment.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			s := net.stats("a", "b")
			if s.Delivered+s.InboxDropped == s.Sent-s.Lost+s.Duplicated {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		return net.stats("a", "b")
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("same seed produced different fates:\n%+v\n%+v", s1, s2)
	}
	if s1.Lost == 0 || s1.Lost == 200 {
		t.Fatalf("loss schedule degenerate: %+v", s1)
	}
	if s1.Duplicated == 0 {
		t.Fatalf("duplication never fired: %+v", s1)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed int64) LinkStats {
		net := NewNetwork(seed)
		defer net.Close()
		a, _ := net.Endpoint("a")
		net.Endpoint("b")
		net.SetDefaults(LinkParams{Loss: 0.5})
		for i := 0; i < 100; i++ {
			a.Send("b", []byte("x"))
		}
		return net.stats("a", "b")
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical fates (suspicious)")
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	net.SetDefaults(LinkParams{Latency: 50 * time.Millisecond})
	start := time.Now()
	a.Send("b", []byte("slow"))
	if _, _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 45*time.Millisecond {
		t.Fatalf("arrived after %v, latency not applied", el)
	}
}

func TestReorderOvertakes(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	// First packet is always reordered (held 50ms); drop reordering
	// before the second so it overtakes.
	net.SetDefaults(LinkParams{Reorder: 1, ReorderDelay: 50 * time.Millisecond})
	a.Send("b", []byte("first"))
	net.SetDefaults(LinkParams{})
	a.Send("b", []byte("second"))
	got := collect(t, b, 2, 2*time.Second)
	if len(got) != 2 || !bytes.Equal(got[0], []byte("second")) {
		t.Fatalf("reordering did not overtake: %q", got)
	}
	if s := net.stats("a", "b"); s.Reordered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBandwidthSerializes(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	// 10 KB/s: a 1000-byte packet takes 100ms on the wire; five of them
	// queue FIFO behind each other.
	net.SetDefaults(LinkParams{Bandwidth: 10_000})
	start := time.Now()
	payload := make([]byte, 1000)
	for i := 0; i < 5; i++ {
		a.Send("b", payload)
	}
	got := collect(t, b, 5, 5*time.Second)
	if len(got) != 5 {
		t.Fatalf("delivered %d/5", len(got))
	}
	if el := time.Since(start); el < 400*time.Millisecond {
		t.Fatalf("5×1000B at 10KB/s finished in %v; serialization not applied", el)
	}
}

func TestPartitionSplitsAndHeals(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	c, _ := net.Endpoint("c")

	net.Partition("split", []string{"a"})
	a.Send("b", []byte("blocked"))
	b.Send("a", []byte("blocked"))
	b.Send("c", []byte("same side"))
	if got := collect(t, c, 1, time.Second); len(got) != 1 {
		t.Fatal("same-side traffic must flow during a partition")
	}
	if s := net.stats("a", "b"); s.PartitionDropped != 1 {
		t.Fatalf("a→b stats = %+v", s)
	}
	if s := net.stats("b", "a"); s.PartitionDropped != 1 {
		t.Fatalf("b→a stats = %+v", s)
	}

	net.Heal("split")
	a.Send("b", []byte("healed"))
	if got := collect(t, b, 1, time.Second); len(got) != 1 || !bytes.Equal(got[0], []byte("healed")) {
		t.Fatal("traffic must flow after heal")
	}
	// Nothing from the blocked sends leaked through.
	if extra := collect(t, a, 1, 100*time.Millisecond); len(extra) != 0 {
		t.Fatalf("blocked packet delivered after heal: %q", extra)
	}
}

func TestComposedPartitions(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	a, _ := net.Endpoint("a")
	net.Endpoint("b")
	net.Partition("p1", []string{"a"})
	net.Partition("p2", []string{"b"})
	a.Send("b", []byte("x"))
	net.Heal("p1")
	a.Send("b", []byte("x"))
	if s := net.stats("a", "b"); s.PartitionDropped != 2 {
		t.Fatalf("both partitions must block a→b independently: %+v", s)
	}
	net.Heal("p2")
	a.Send("b", []byte("x"))
	waitFor(t, time.Second, func() bool { return net.stats("a", "b").Delivered == 1 })
}

func TestUnroutedAndClosedEndpoints(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	a.Send("nobody", []byte("x"))
	if s := net.stats("a", "nobody"); s.Unrouted != 1 {
		t.Fatalf("stats = %+v", s)
	}
	b.Close()
	a.Send("b", []byte("x"))
	if s := net.stats("a", "b"); s.Unrouted != 1 {
		t.Fatalf("send to closed endpoint must be unrouted: %+v", s)
	}
	if _, _, err := b.Recv(); err != errClosed {
		t.Fatalf("recv on closed endpoint = %v", err)
	}
	if err := b.Send("a", nil); err != errClosed {
		t.Fatalf("send on closed endpoint = %v", err)
	}
}

func TestInboxOverflowDropsAndCounts(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	for i := 0; i < inboxDepth+50; i++ {
		a.Send("b", []byte("x"))
	}
	waitFor(t, 2*time.Second, func() bool {
		s := net.stats("a", "b")
		return s.Delivered+s.InboxDropped == uint64(inboxDepth+50)
	})
	s := net.stats("a", "b")
	if s.InboxDropped != 50 || b.inboxDrops() != 50 {
		t.Fatalf("expected 50 inbox drops: link=%+v endpoint=%d", s, b.inboxDrops())
	}
}

func TestNetworkCloseUnblocksAndRejects(t *testing.T) {
	net := NewNetwork(1)
	a, _ := net.Endpoint("a")
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.Recv()
	}()
	net.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on network close")
	}
	if err := a.Send("a", nil); err != errClosed {
		t.Fatalf("send after close = %v", err)
	}
	if _, err := net.Endpoint("late"); err != errClosed {
		t.Fatalf("endpoint after close = %v", err)
	}
}

func TestDuplicateAddressRejected(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	if _, err := net.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("a"); err == nil {
		t.Fatal("duplicate address must be rejected")
	}
	if _, err := net.Endpoint(""); err == nil {
		t.Fatal("empty address must be rejected")
	}
}

func TestPerLinkOverride(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	net.Endpoint("c")
	net.SetLink("a", "b", LinkParams{Loss: 1})
	for i := 0; i < 5; i++ {
		a.Send("b", []byte("x"))
		a.Send("c", []byte("x"))
	}
	if s := net.stats("a", "b"); s.Lost != 5 {
		t.Fatalf("override not applied: %+v", s)
	}
	waitFor(t, time.Second, func() bool { return net.stats("a", "c").Delivered == 5 })
	net.ClearLink("a", "b")
	a.Send("b", []byte("x"))
	waitFor(t, time.Second, func() bool { return net.stats("a", "b").Delivered == 1 })
	_ = b
}

func TestTotalStatsAggregates(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	a.Send("b", []byte("x"))
	b.Send("a", []byte("x"))
	waitFor(t, time.Second, func() bool { return net.TotalStats().Delivered == 2 })
	if s := net.TotalStats(); s.Sent != 2 {
		t.Fatalf("total = %+v", s)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestManyEndpointsAllPairs(t *testing.T) {
	net := NewNetwork(7)
	defer net.Close()
	const n = 8
	eps := make([]*Endpoint, n)
	for i := range eps {
		e, err := net.Endpoint(fmt.Sprintf("n%d", i))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = e
	}
	for i, src := range eps {
		for j := range eps {
			if i == j {
				continue
			}
			src.Send(fmt.Sprintf("n%d", j), []byte{byte(i), byte(j)})
		}
	}
	for j, dst := range eps {
		got := collect(t, dst, n-1, 2*time.Second)
		if len(got) != n-1 {
			t.Fatalf("endpoint %d received %d/%d", j, len(got), n-1)
		}
	}
}
