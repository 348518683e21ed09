package netem

import (
	"fmt"
	"testing"
	"time"
)

// accounted is the number of packet fates a link has explained; the
// conservation identity is Sent + Duplicated == accounted once the
// fabric has drained.
func accounted(s LinkStats) uint64 {
	return s.Delivered + s.Lost + s.PartitionDropped + s.Unrouted + s.InboxDropped
}

func checkConservation(t *testing.T, label string, s LinkStats) {
	t.Helper()
	if s.Sent+s.Duplicated != accounted(s) {
		t.Errorf("%s: conservation violated: Sent=%d Duplicated=%d but Delivered=%d Lost=%d PartitionDropped=%d Unrouted=%d InboxDropped=%d",
			label, s.Sent, s.Duplicated, s.Delivered, s.Lost, s.PartitionDropped, s.Unrouted, s.InboxDropped)
	}
}

// waitDrained polls until the link's fates all resolve or the deadline
// passes; in-flight packets are the only legal slack in the identity.
func waitDrained(t *testing.T, net *Network, src, dst string, deadline time.Duration) LinkStats {
	t.Helper()
	var s LinkStats
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		s = net.stats(src, dst)
		if s.Sent+s.Duplicated == accounted(s) {
			return s
		}
		time.Sleep(5 * time.Millisecond)
	}
	return net.stats(src, dst)
}

// TestPartitionCountersAccountEveryPacket sends across a named
// partition and verifies that the per-link counters explain the fate of
// every packet: crossing traffic is charged to PartitionDropped packet
// for packet, same-side traffic is unaffected, and healing restores
// delivery without disturbing the partition-era ledger.
func TestPartitionCountersAccountEveryPacket(t *testing.T) {
	net := NewNetwork(7)
	defer net.Close()
	eps := map[string]*Endpoint{}
	for _, addr := range []string{"a1", "a2", "b1"} {
		e, err := net.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		eps[addr] = e
	}

	net.Partition("split", []string{"a1", "a2"})

	const crossing, sameSide = 17, 5
	for i := 0; i < crossing; i++ {
		if err := eps["a1"].Send("b1", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sameSide; i++ {
		if err := eps["a1"].Send("a2", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	cross := waitDrained(t, net, "a1", "b1", 2*time.Second)
	if cross.Sent != crossing {
		t.Fatalf("crossing link: Sent=%d, want %d", cross.Sent, crossing)
	}
	if cross.PartitionDropped != crossing {
		t.Fatalf("crossing link: PartitionDropped=%d, want %d (every crossing packet must be charged)", cross.PartitionDropped, crossing)
	}
	if cross.Delivered != 0 {
		t.Fatalf("crossing link: Delivered=%d across an installed partition", cross.Delivered)
	}
	checkConservation(t, "a1->b1 partitioned", cross)

	if got := collect(t, eps["a2"], sameSide, 2*time.Second); len(got) != sameSide {
		t.Fatalf("same-side delivery: got %d/%d", len(got), sameSide)
	}
	same := waitDrained(t, net, "a1", "a2", 2*time.Second)
	if same.PartitionDropped != 0 {
		t.Fatalf("same-side link: PartitionDropped=%d, want 0", same.PartitionDropped)
	}
	if same.Delivered != sameSide {
		t.Fatalf("same-side link: Delivered=%d, want %d", same.Delivered, sameSide)
	}
	checkConservation(t, "a1->a2 same side", same)

	// Healing restores delivery; the partition-era charges stay put.
	net.Heal("split")
	if err := eps["a1"].Send("b1", []byte("after-heal")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, eps["b1"], 1, 2*time.Second); len(got) != 1 {
		t.Fatal("no delivery after Heal")
	}
	healed := waitDrained(t, net, "a1", "b1", 2*time.Second)
	if healed.PartitionDropped != crossing {
		t.Fatalf("after heal: PartitionDropped=%d, want %d (ledger must not be rewritten)", healed.PartitionDropped, crossing)
	}
	if healed.Delivered != 1 {
		t.Fatalf("after heal: Delivered=%d, want 1", healed.Delivered)
	}
	checkConservation(t, "a1->b1 healed", healed)
}

// TestPartitionCountersUnderLossAndDuplication overlays a lossy,
// duplicating fault schedule on a partitioned fabric: every offered
// packet must still be explained by exactly one fate counter, and
// duplicates must be explained too.
func TestPartitionCountersUnderLossAndDuplication(t *testing.T) {
	net := NewNetwork(11)
	defer net.Close()
	for _, addr := range []string{"a", "b", "c"} {
		if _, err := net.Endpoint(addr); err != nil {
			t.Fatal(err)
		}
	}
	net.SetDefaults(LinkParams{Loss: 0.3, Duplicate: 0.2})
	net.Partition("island", []string{"a"})

	src, err := net.Endpoint("src") // joins outside the island
	if err != nil {
		t.Fatal(err)
	}
	const offered = 200
	for i := 0; i < offered; i++ {
		// Alternate a partitioned destination with a reachable one and an
		// unbound address so all fate counters participate.
		dst := []string{"a", "b", "nowhere"}[i%3]
		if err := src.Send(dst, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, dst := range []string{"a", "b", "nowhere"} {
		s := waitDrained(t, net, "src", dst, 5*time.Second)
		checkConservation(t, fmt.Sprintf("src->%s", dst), s)
	}
	toA := net.stats("src", "a")
	if toA.PartitionDropped == 0 || toA.Delivered != 0 {
		t.Fatalf("src->a: PartitionDropped=%d Delivered=%d; the island must drop everything", toA.PartitionDropped, toA.Delivered)
	}
	toNowhere := net.stats("src", "nowhere")
	if toNowhere.Unrouted == 0 {
		t.Fatalf("src->nowhere: Unrouted=%d, want >0", toNowhere.Unrouted)
	}
	total := net.TotalStats()
	checkConservation(t, "total", total)
	if total.Sent != offered {
		t.Fatalf("TotalStats.Sent=%d, want %d", total.Sent, offered)
	}
}
