package vring

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

func TestLeaveHostMaintainsRing(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	ids := joinN(t, n, isp, 30)
	for i := 0; i < 10; i++ {
		if err := n.LeaveHost(ids[i]); err != nil {
			t.Fatalf("leave %d: %v", i, err)
		}
		if err := n.CheckRing(); err != nil {
			t.Fatalf("ring broken after leave %d: %v", i, err)
		}
	}
	// Remaining hosts still routable.
	for _, id := range ids[10:] {
		if _, err := n.Route(isp.Backbone[0], id); err != nil {
			t.Fatalf("route after leaves: %v", err)
		}
	}
	// Departed hosts are gone.
	if _, err := n.Route(isp.Backbone[0], ids[0]); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("departed host still routable: %v", err)
	}
}

func TestFailHostTeardownCharged(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	ids := joinN(t, n, isp, 30)
	before := n.Metrics.Counter(MsgTeardown)
	if err := n.FailHost(ids[7]); err != nil {
		t.Fatal(err)
	}
	if n.Metrics.Counter(MsgTeardown) <= before {
		t.Fatal("teardown flood must be charged")
	}
	if err := n.CheckRing(); err != nil {
		t.Fatalf("ring broken: %v", err)
	}
}

func TestFailUnknownHost(t *testing.T) {
	n, _ := newTestNet(t, DefaultOptions())
	if err := n.FailHost(ident.FromString("ghost")); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("want ErrUnknownID, got %v", err)
	}
}

func TestCannotRemoveDefaultVN(t *testing.T) {
	n, _ := newTestNet(t, DefaultOptions())
	if err := n.LeaveHost(n.Routers[0].ID); err == nil {
		t.Fatal("default virtual node must be unremovable")
	}
}

func TestFailEphemeralHost(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	joinN(t, n, isp, 10)
	eph := ident.FromString("laptop")
	if _, err := n.JoinEphemeral(eph, isp.Access[1]); err != nil {
		t.Fatal(err)
	}
	if err := n.FailHost(eph); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckRing(); err != nil {
		t.Fatal(err)
	}
	// No router should still park it.
	for _, r := range n.Routers {
		if _, ok := r.parkedAt(eph); ok {
			t.Fatal("stale parking survived teardown")
		}
	}
}

// TestCheckRingCatchesTableCorruption plants the faults a router's own
// tables can hold beneath a correct ring: a resident out of identifier
// order, and a parking no stable resident of that router owns.
func TestCheckRingCatchesTableCorruption(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	joinN(t, n, isp, 10)
	eph := ident.FromString("corrupt-eph")
	if _, err := n.JoinEphemeral(eph, isp.Access[1]); err != nil {
		t.Fatal(err)
	}
	clean := func() {
		t.Helper()
		if err := n.CheckRing(); err != nil {
			t.Fatalf("clean state flagged: %v", err)
		}
	}
	caught := func(what, msg string) {
		t.Helper()
		if err := n.CheckRing(); !errors.Is(err, ErrRingCorrupted) || !strings.Contains(err.Error(), msg) {
			t.Fatalf("%s not caught: %v", what, err)
		}
	}
	clean()

	var r *Router
	for _, c := range n.Routers {
		if len(c.VNs) >= 2 {
			r = c
			break
		}
	}
	if r == nil {
		t.Fatal("no router hosts two identifiers")
	}
	r.VNs[0], r.VNs[1] = r.VNs[1], r.VNs[0]
	caught("resident out of order", "out of order")
	r.VNs[0], r.VNs[1] = r.VNs[1], r.VNs[0]
	clean()

	// An orphan parking at the ephemeral's router: its parent is resident
	// nowhere, and then it is the ephemeral itself.
	host, _ := n.HostingRouter(eph)
	child := Pointer{ID: ident.FromString("never-joined"), Router: host}
	for _, parent := range []ident.ID{ident.FromString("departed"), eph} {
		n.Routers[host].park(parent, child)
		caught("orphan parking", "no stable resident")
		n.Routers[host].unpark(func(e parking) bool { return e.ID == child.ID })
		clean()
	}
}

func TestMoveHost(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	ids := joinN(t, n, isp, 20)
	id := ids[3]
	to := isp.Access[9]
	if _, err := n.MoveHost(id, to); err != nil {
		t.Fatal(err)
	}
	if host, _ := n.HostingRouter(id); host != to {
		t.Fatalf("host at %d want %d", host, to)
	}
	if err := n.CheckRing(); err != nil {
		t.Fatal(err)
	}
	res, err := n.Route(isp.Backbone[0], id)
	if err != nil || res.Final != to {
		t.Fatalf("route after move: %+v %v", res, err)
	}
}

func TestFailRouterFailover(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	ids := joinN(t, n, isp, 30)
	victim := isp.Access[0]
	// IDs resident at the victim before the crash.
	var resident []ident.ID
	for _, id := range ids {
		if h, _ := n.HostingRouter(id); h == victim {
			resident = append(resident, id)
		}
	}
	if len(resident) == 0 {
		t.Skip("no host landed on the victim in this seed")
	}
	if err := n.FailRouter(victim); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckRing(); err != nil {
		t.Fatalf("ring broken after router failure: %v", err)
	}
	// Every resident host failed over and is still routable.
	for _, id := range resident {
		h, ok := n.HostingRouter(id)
		if !ok {
			t.Fatalf("host %s lost", id.Short())
		}
		if h == victim {
			t.Fatal("host still at dead router")
		}
		if _, err := n.Route(isp.Backbone[1], id); err != nil {
			t.Fatalf("route to failed-over host: %v", err)
		}
	}
	// All other hosts unaffected.
	for _, id := range ids {
		if _, err := n.Route(isp.Backbone[2], id); err != nil {
			t.Fatalf("collateral damage on %s: %v", id.Short(), err)
		}
	}
}

func TestFailRouterTwiceErrors(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	joinN(t, n, isp, 5)
	if err := n.FailRouter(isp.Access[2]); err != nil {
		t.Fatal(err)
	}
	if err := n.FailRouter(isp.Access[2]); !errors.Is(err, ErrRouterDown) {
		t.Fatalf("want ErrRouterDown, got %v", err)
	}
}

func TestLinkFailureRoutesAround(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	ids := joinN(t, n, isp, 30)
	// Fail one inter-PoP backbone link that does not partition.
	g := isp.Graph
	var a, b RouterID
	found := false
	for _, bb := range isp.Backbone {
		for _, e := range g.Neighbors(bb) {
			if g.PoP(e.To) != g.PoP(bb) {
				down := func(x, y topology.NodeID) bool {
					return !(x == bb && y == e.To) && !(x == e.To && y == bb)
				}
				if g.Connected(down) {
					a, b, found = bb, e.To, true
					break
				}
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no non-partitioning link found")
	}
	n.FailLink(a, b)
	for _, id := range ids {
		if _, err := n.Route(isp.Backbone[0], id); err != nil {
			t.Fatalf("route after link failure: %v", err)
		}
	}
	n.RestoreLink(a, b)
	if err := n.CheckRing(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSplitAndMerge(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	ids := joinN(t, n, isp, 60)

	pop := 2
	cut := n.PartitionPoP(pop)
	if len(cut) == 0 {
		t.Fatal("PartitionPoP cut nothing")
	}
	// Network must now be partitioned.
	inPoP := func(r RouterID) bool { return isp.Graph.PoP(r) == pop }
	var inside, outside RouterID = -1, -1
	for i := 0; i < isp.Graph.NumNodes(); i++ {
		if inPoP(RouterID(i)) && inside == -1 {
			inside = RouterID(i)
		}
		if !inPoP(RouterID(i)) && outside == -1 {
			outside = RouterID(i)
		}
	}
	if n.LS.Reachable(inside, outside) {
		t.Fatal("PoP still connected after cut")
	}

	msgs := n.RepairPartitions()
	if err := n.CheckRing(); err != nil {
		t.Fatalf("rings inconsistent after split repair: %v", err)
	}
	t.Logf("split repair: %d msgs", msgs)

	// Intra-partition routing works on both sides.
	for _, id := range ids {
		host, _ := n.HostingRouter(id)
		var from RouterID
		if inPoP(host) {
			from = inside
		} else {
			from = outside
		}
		if !n.LS.Reachable(from, host) {
			continue
		}
		if _, err := n.Route(from, id); err != nil {
			t.Fatalf("intra-partition route to %s: %v", id.Short(), err)
		}
	}

	// Heal and merge.
	for _, l := range cut {
		n.RestoreLink(l[0], l[1])
	}
	mergeMsgs := n.RepairPartitions()
	if err := n.CheckRing(); err != nil {
		t.Fatalf("ring inconsistent after merge: %v", err)
	}
	t.Logf("merge repair: %d msgs", mergeMsgs)

	// Everything routable from everywhere again.
	for _, id := range ids {
		if _, err := n.Route(outside, id); err != nil {
			t.Fatalf("post-merge route to %s: %v", id.Short(), err)
		}
	}
}

func TestRepairIsIdempotent(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	joinN(t, n, isp, 20)
	if msgs := n.RepairPartitions(); msgs != 0 {
		t.Fatalf("repair on consistent ring charged %d msgs", msgs)
	}
}

func TestChurnConvergence(t *testing.T) {
	// Randomized churn: joins, leaves, crashes, router failures and
	// partitions interleaved; the ring checker must pass after every
	// repair — the paper's 10-million-partition consistency claim in
	// miniature.
	isp := testISP()
	m := sim.NewMetrics()
	opts := DefaultOptions()
	opts.Seed = 11
	n := New(isp.Graph, m, opts)
	rng := rand.New(rand.NewSource(11))

	alive := map[ident.ID]bool{}
	var aliveList []ident.ID
	next := 0
	refresh := func() {
		aliveList = aliveList[:0]
		for id, ok := range alive {
			if ok {
				aliveList = append(aliveList, id)
			}
		}
	}
	for step := 0; step < 120; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // join
			id := ident.FromString(fmt.Sprintf("churn-%d", next))
			next++
			at := isp.Access[rng.Intn(len(isp.Access))]
			if !n.LS.NodeUp(at) {
				continue
			}
			if _, err := n.JoinHost(id, at); err != nil {
				t.Fatalf("step %d join: %v", step, err)
			}
			alive[id] = true
		case op < 7: // leave or crash
			refresh()
			if len(aliveList) == 0 {
				continue
			}
			id := aliveList[rng.Intn(len(aliveList))]
			var err error
			if rng.Intn(2) == 0 {
				err = n.LeaveHost(id)
			} else {
				err = n.FailHost(id)
			}
			if err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
			delete(alive, id)
		case op < 8: // partition + heal a PoP
			pop := rng.Intn(6)
			cut := n.PartitionPoP(pop)
			n.RepairPartitions()
			if err := n.CheckRing(); err != nil {
				t.Fatalf("step %d split: %v", step, err)
			}
			for _, l := range cut {
				n.RestoreLink(l[0], l[1])
			}
			n.RepairPartitions()
		default: // random link flap
			g := isp.Graph
			a := RouterID(rng.Intn(g.NumNodes()))
			if g.Degree(a) == 0 {
				continue
			}
			e := g.Neighbors(a)[rng.Intn(g.Degree(a))]
			n.FailLink(a, e.To)
			n.RepairPartitions()
			if err := n.CheckRing(); err != nil {
				t.Fatalf("step %d link fail: %v", step, err)
			}
			n.RestoreLink(a, e.To)
			n.RepairPartitions()
		}
		if err := n.CheckRing(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// Everything still alive must be routable.
	refresh()
	for _, id := range aliveList {
		host, _ := n.HostingRouter(id)
		if !n.LS.Reachable(isp.Backbone[0], host) {
			continue
		}
		if _, err := n.Route(isp.Backbone[0], id); err != nil {
			t.Fatalf("final route to %s: %v", id.Short(), err)
		}
	}
}

func TestEphemeralSurvivesPartition(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	joinN(t, n, isp, 40)
	// Park ephemerals in several PoPs.
	var ephs []ident.ID
	for i := 0; i < 8; i++ {
		id := ident.FromString(fmt.Sprintf("eph-%d", i))
		if _, err := n.JoinEphemeral(id, isp.Access[i*3%len(isp.Access)]); err != nil {
			t.Fatal(err)
		}
		ephs = append(ephs, id)
	}
	pop := 1
	cut := n.PartitionPoP(pop)
	n.RepairPartitions()
	if err := n.CheckRing(); err != nil {
		t.Fatalf("split: %v", err)
	}
	for _, l := range cut {
		n.RestoreLink(l[0], l[1])
	}
	n.RepairPartitions()
	if err := n.CheckRing(); err != nil {
		t.Fatalf("merge: %v", err)
	}
	// Every ephemeral routable again after the merge.
	for _, id := range ephs {
		res, err := n.Route(isp.Backbone[0], id)
		if err != nil || !res.Delivered {
			t.Fatalf("ephemeral %s unroutable after merge: %v", id.Short(), err)
		}
	}
}

func TestMoveEphemeralHost(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	joinN(t, n, isp, 15)
	id := ident.FromString("roaming-laptop")
	if _, err := n.JoinEphemeral(id, isp.Access[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := n.MoveHost(id, isp.Access[5]); err != nil {
		t.Fatal(err)
	}
	host, ok := n.HostingRouter(id)
	if !ok || host != isp.Access[5] {
		t.Fatalf("moved to %d want %d", host, isp.Access[5])
	}
	// Still ephemeral after the move: never a ring member.
	vn := n.Routers[host].Resident(id)
	if !vn.Ephemeral {
		t.Fatal("ephemeral flag lost in move")
	}
	if err := n.CheckRing(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Route(isp.Backbone[1], id); err != nil {
		t.Fatalf("route after move: %v", err)
	}
}

func TestMoveUnknownHost(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	if _, err := n.MoveHost(ident.FromString("nope"), isp.Access[0]); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("want ErrUnknownID: %v", err)
	}
}
