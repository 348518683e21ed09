package canon

import (
	"errors"
	"math/rand"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

func TestNegotiateAndRouteDirect(t *testing.T) {
	in, g := genInternet(t, DefaultOptions())
	ids := joinMany(t, in, g, 150, Multihomed, 21)
	rng := rand.New(rand.NewSource(22))
	negotiated := 0
	for i := 0; i < 60; i++ {
		src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if src == dst {
			continue
		}
		n, err := in.Negotiate(src, dst, nil)
		if err != nil {
			t.Fatalf("negotiate: %v", err)
		}
		if !n.FirstPacket.Delivered {
			t.Fatal("first packet must deliver")
		}
		// The negotiated set is small: bounded by the two up-hierarchies.
		if len(n.Allowed) > g.NumASes()/2 {
			t.Fatalf("negotiated set too large: %d", len(n.Allowed))
		}
		path, err := in.RouteNegotiated(n)
		if err != nil {
			continue // negotiated set may lack a path for odd pairs
		}
		negotiated++
		// Subsequent packets: direct policy path, at most the greedy cost
		// and usually far less ("stretch ... reduced to one").
		if len(path)-1 > n.FirstPacket.ASHops {
			t.Fatalf("negotiated path (%d hops) worse than greedy (%d)", len(path)-1, n.FirstPacket.ASHops)
		}
		// Path confined to the negotiated set.
		for _, a := range path {
			if !n.Allowed[a] {
				t.Fatalf("negotiated path escaped the allowed set: %v", path)
			}
		}
	}
	if negotiated == 0 {
		t.Fatal("no pair could route over its negotiated set")
	}
}

func TestNegotiateWithPruning(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	a := ident.FromString("src4")
	b := ident.FromString("dst5")
	if _, err := in.Join(a, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Join(b, 5, Multihomed); err != nil {
		t.Fatal(err)
	}
	// Destination refuses to reveal AS 1 (its tier-1 ancestor).
	n, err := in.Negotiate(a, b, func(as topology.ASN) bool { return as != 1 })
	if err != nil {
		t.Fatal(err)
	}
	// AS 1 is still in the set via the SOURCE's own up-hierarchy (the
	// source always knows its own ancestors); prune a different branch.
	path, err := in.RouteNegotiated(n)
	if err != nil {
		t.Fatal(err)
	}
	// 4 and 5 share AS 2, so the direct path is 4-2-5.
	if len(path) != 3 || path[1] != 2 {
		t.Fatalf("path = %v want [4 2 5]", path)
	}
}

func TestJoinGroupTEPinsProviders(t *testing.T) {
	// Stub 4 multihomed to providers 2 and 3.
	g := topology.NewASGraph(5)
	g.SetRelation(2, 1, topology.RelProvider)
	g.SetRelation(3, 1, topology.RelProvider)
	g.SetRelation(4, 2, topology.RelProvider)
	g.SetRelation(4, 3, topology.RelProvider)
	g.SetTier(1, 1)
	g.SetTier(2, 2)
	g.SetTier(3, 2)
	g.SetTier(4, 3)
	in := New(g, sim.NewMetrics(), DefaultOptions())

	grp := ident.GroupFromString("te-service")
	res, err := in.JoinGroupTE(grp, []uint32{1, 2, 3, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 4 {
		t.Fatalf("members = %d", len(res.Members))
	}
	// Suffixes alternate between the two providers.
	seen := map[topology.ASN]int{}
	for _, p := range res.ProviderOf {
		seen[p]++
	}
	if seen[2] != 2 || seen[3] != 2 {
		t.Fatalf("provider pinning = %v, want 2 each", seen)
	}
	if err := in.CheckRings(); err != nil {
		t.Fatal(err)
	}

	// Inbound traffic for a suffix pinned to provider 2 enters via 2.
	sender := ident.FromString("sender-in-3")
	if _, err := in.Join(sender, 3, Multihomed); err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Members {
		rr, err := in.Route(sender, id)
		if err != nil || !rr.Delivered {
			t.Fatalf("route to member: %+v %v", rr, err)
		}
		// Last hop into AS 4 must be the pinned provider when traffic
		// originates outside it... at minimum it must deliver to AS 4.
		if rr.FinalAS != 4 {
			t.Fatalf("delivered to AS %d", rr.FinalAS)
		}
	}
}

func TestJoinGroupTENoProviders(t *testing.T) {
	g := topology.NewASGraph(2)
	g.SetTier(0, 1)
	g.SetTier(1, 1)
	in := New(g, sim.NewMetrics(), DefaultOptions())
	if _, err := in.JoinGroupTE(ident.GroupFromString("x"), []uint32{1}, 0); err == nil {
		t.Fatal("providerless AS must fail the TE join")
	}
}

func TestRouteAnycastInterdomain(t *testing.T) {
	in, g := genInternet(t, DefaultOptions())
	ids := joinMany(t, in, g, 100, Multihomed, 23)
	grp := ident.GroupFromString("anycast-dns")
	memberASes := map[topology.ASN]bool{}
	stubs := g.Stubs()
	for i := 0; i < 4; i++ {
		at := stubs[i*13%len(stubs)]
		if _, err := in.Join(grp.Member(uint32(i+1)), at, Multihomed); err != nil {
			t.Fatal(err)
		}
		memberASes[at] = true
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 50; i++ {
		src := ids[rng.Intn(len(ids))]
		res, member, err := in.RouteAnycast(src, grp, rng)
		if err != nil {
			t.Fatalf("anycast: %v", err)
		}
		if !res.Delivered || !memberASes[res.FinalAS] {
			t.Fatalf("delivered to non-member AS %d", res.FinalAS)
		}
		if !ident.SameGroup(member, grp.Member(0)) {
			t.Fatal("returned member outside the group")
		}
	}
	// Unknown source errors.
	if _, _, err := in.RouteAnycast(ident.FromString("nobody"), grp, rng); !errors.Is(err, errUnknownID) {
		t.Fatalf("unknown source: %v", err)
	}
}
