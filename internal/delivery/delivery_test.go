package delivery

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

func testNet(t *testing.T) (*vring.Network, *topology.ISP, sim.Metrics) {
	t.Helper()
	isp := topology.GenISP(topology.ISPConfig{
		Name: "t", Routers: 40, PoPs: 6, BackbonePerPoP: 2, PoPDegree: 2,
		IntraPoPDelay: 0.5, InterPoPDelay: 5, Hosts: 100, ZipfS: 1.2, Seed: 7,
	})
	m := sim.NewMetrics()
	n := vring.New(isp.Graph, m, vring.DefaultOptions())
	// Background hosts so the ring is non-trivial.
	for i := 0; i < 30; i++ {
		if _, err := n.JoinHost(ident.FromString(fmt.Sprintf("bg-%d", i)), isp.Access[i%len(isp.Access)]); err != nil {
			t.Fatal(err)
		}
	}
	return n, isp, m
}

func TestAnycastReachesSomeMember(t *testing.T) {
	n, isp, _ := testNet(t)
	g := ident.GroupFromString("dns")
	any := NewAnycast(n, g)
	memberRouters := map[vring.RouterID]bool{}
	for i := 0; i < 4; i++ {
		at := isp.Access[i*3]
		if _, err := any.AddMember(uint32(i+1), at); err != nil {
			t.Fatal(err)
		}
		memberRouters[at] = true
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		from := isp.Access[rng.Intn(len(isp.Access))]
		out, err := any.Send(from, rng)
		if err != nil {
			t.Fatalf("anycast send: %v", err)
		}
		if !memberRouters[out.Final] {
			t.Fatalf("delivered to non-member router %d", out.Final)
		}
		if !ident.SameGroup(out.VN.ID, g.Member(0)) {
			t.Fatal("delivered to a non-member virtual node")
		}
	}
}

// TestAnycastPicksLowestMemberAtRouter: of two members hosted at the
// router a packet reaches first, it is delivered to the lower, every time.
func TestAnycastPicksLowestMemberAtRouter(t *testing.T) {
	n, isp, _ := testNet(t)
	g := ident.GroupFromString("pair")
	any := NewAnycast(n, g)
	for _, suffix := range []uint32{2, 1} {
		if _, err := any.AddMember(suffix, isp.Access[5]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		out, err := any.Send(isp.Access[0], rng)
		if err != nil {
			t.Fatalf("anycast send %d: %v", i, err)
		}
		if out.VN.ID != g.Member(1) {
			t.Fatalf("send %d delivered to suffix %d, want the lower member, suffix 1", i, ident.Suffix(out.VN.ID))
		}
	}
}

func TestAnycastEmptyGroup(t *testing.T) {
	n, isp, _ := testNet(t)
	any := NewAnycast(n, ident.GroupFromString("empty"))
	rng := rand.New(rand.NewSource(2))
	if _, err := any.Send(isp.Access[0], rng); err == nil {
		t.Fatal("empty group must not deliver")
	}
}

func TestAnycastSendToSpecificSuffix(t *testing.T) {
	n, isp, _ := testNet(t)
	g := ident.GroupFromString("web")
	any := NewAnycast(n, g)
	at := isp.Access[4]
	if _, err := any.AddMember(7, at); err != nil {
		t.Fatal(err)
	}
	res, err := any.SendTo(isp.Backbone[0], 7)
	if err != nil || res.Final != at {
		t.Fatalf("SendTo: %+v %v", res, err)
	}
}

func TestMulticastTreeReachesAllMembers(t *testing.T) {
	n, isp, m := testNet(t)
	g := ident.GroupFromString("video")
	mc := NewMulticast(n, g, m)
	for i := 0; i < 6; i++ {
		if err := mc.Join(uint32(i+1), isp.Access[i*2]); err != nil {
			t.Fatalf("join member %d: %v", i, err)
		}
	}
	if mc.Members() != 6 {
		t.Fatalf("members = %d", mc.Members())
	}
	for i := 0; i < 6; i++ {
		reached, msgs, err := mc.Send(g.Member(uint32(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		if len(reached) != 6 {
			t.Fatalf("send from member %d reached %d/6", i+1, len(reached))
		}
		if msgs <= 0 {
			t.Fatal("multicast must cross links")
		}
		// Tree efficiency: messages bounded by tree size, not member
		// count × path length.
		if msgs >= mc.TreeRouters() {
			t.Fatalf("msgs %d >= tree routers %d (tree should be a tree)", msgs, mc.TreeRouters())
		}
	}
	if m.Counter(MsgPaint) == 0 {
		t.Fatal("painting must cost messages")
	}
}

func TestMulticastSingleMember(t *testing.T) {
	n, isp, m := testNet(t)
	mc := NewMulticast(n, ident.GroupFromString("solo"), m)
	if err := mc.Join(1, isp.Access[0]); err != nil {
		t.Fatal(err)
	}
	reached, msgs, err := mc.Send(mc.Group.Member(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(reached) != 1 || msgs != 0 {
		t.Fatalf("solo send: reached=%d msgs=%d", len(reached), msgs)
	}
}

func TestMulticastNonMemberSend(t *testing.T) {
	n, _, m := testNet(t)
	mc := NewMulticast(n, ident.GroupFromString("x"), m)
	if _, _, err := mc.Send(ident.FromString("outsider")); !errors.Is(err, ErrNotMember) {
		t.Fatalf("want ErrNotMember, got %v", err)
	}
}

func TestMulticastLeaveAndPrune(t *testing.T) {
	n, isp, m := testNet(t)
	g := ident.GroupFromString("prune")
	mc := NewMulticast(n, g, m)
	for i := 0; i < 4; i++ {
		if err := mc.Join(uint32(i+1), isp.Access[i*4]); err != nil {
			t.Fatal(err)
		}
	}
	before := mc.TreeRouters()
	if err := mc.Leave(g.Member(4)); err != nil {
		t.Fatal(err)
	}
	if mc.Members() != 3 {
		t.Fatalf("members = %d", mc.Members())
	}
	if mc.TreeRouters() > before {
		t.Fatal("tree grew on leave")
	}
	// Remaining members still fully reachable.
	reached, _, err := mc.Send(g.Member(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(reached) != 3 {
		t.Fatalf("reached %d/3 after prune", len(reached))
	}
	if err := mc.Leave(g.Member(4)); !errors.Is(err, ErrNotMember) {
		t.Fatalf("double leave: %v", err)
	}
}

func TestMulticastManyMembersEfficiency(t *testing.T) {
	// Tree flooding must cost far less than unicasting to every member
	// from the source.
	n, isp, m := testNet(t)
	g := ident.GroupFromString("big")
	mc := NewMulticast(n, g, m)
	for i := 0; i < 12; i++ {
		if err := mc.Join(uint32(i+1), isp.Access[(i*2+1)%len(isp.Access)]); err != nil {
			t.Fatal(err)
		}
	}
	reached, treeMsgs, err := mc.Send(g.Member(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(reached) != 12 {
		t.Fatalf("reached %d/12", len(reached))
	}
	// Unicast comparison.
	srcRouter, _ := n.HostingRouter(g.Member(1))
	unicast := 0
	for i := 2; i <= 12; i++ {
		res, err := n.Route(srcRouter, g.Member(uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		unicast += res.Hops
	}
	t.Logf("tree=%d msgs vs unicast=%d msgs", treeMsgs, unicast)
	if treeMsgs >= unicast {
		t.Fatalf("tree (%d) should beat unicast fan-out (%d)", treeMsgs, unicast)
	}
}
