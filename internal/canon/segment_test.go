package canon

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// hopCalls counts the hops route took from a stored segment, split by
// the link the packet entered the AS on.
type hopCalls struct {
	up     int // a provider link: the packet is still free to climb there
	down   int // a customer or peer link: it may only descend
	differ int // of down, the hops a fresh search would have taken elsewhere
}

// checkHops holds every hop route takes from a stored segment, for the
// rest of t, to a fresh search from the AS the packet stands at. Where
// the packet climbed into that AS the two must agree (DESIGN.md §5);
// elsewhere a fresh search may climb again, and differ counts how often
// it would have left by another link.
func checkHops(t *testing.T) *hopCalls {
	t.Helper()
	var n hopCalls
	testHookHop = func(in *Internet, root Root, to, prev, cur, next topology.ASN) {
		fresh := in.pathWithin(root, cur, to)
		if len(fresh) < 2 {
			t.Fatalf("segment hop %d->%d toward AS %d in %v: a fresh search finds no path", cur, next, to, root)
		}
		switch in.G.Relation(prev, cur) {
		case topology.RelProvider, topology.RelBackup:
			n.up++
			if fresh[1] != next {
				t.Fatalf("segment hop %d->%d toward AS %d in %v, entered from customer %d: a fresh search goes to %d",
					cur, next, to, root, prev, fresh[1])
			}
		default:
			n.down++
			if fresh[1] != next {
				n.differ++
			}
		}
	}
	t.Cleanup(func() { testHookHop = nil })
	return &n
}

// valleyGraph is a 7-AS graph where a search from AS 2 toward AS 6
// climbs: its provider 4 is as close to 6 as its customer 5.
//
//	1         tier 1
//	|\
//	| 3
//	| |
//	2-4       2 is a customer of 1 and of 4
//	| |
//	5-6       6 is a customer of 5 and of 4, and tier 3
func valleyGraph() *topology.ASGraph {
	g := topology.NewASGraph(7)
	for _, l := range [][2]topology.ASN{{2, 1}, {3, 1}, {4, 3}, {2, 4}, {5, 2}, {6, 4}, {6, 5}} {
		g.SetRelation(l[0], l[1], topology.RelProvider)
	}
	for a := range topology.ASN(7) {
		g.SetTier(a, 2)
	}
	g.SetTier(1, 1)
	g.SetTier(6, 3)
	return g
}

// TestRouteFollowsPlannedSegment: the packet plans 1-2-5-6 at AS 1 and
// enters 2 from its provider. A fresh search from 2 would climb to 4 and
// descend from there, a valley inside one segment; following the plan
// does not.
func TestRouteFollowsPlannedSegment(t *testing.T) {
	calls := checkHops(t)
	in := New(valleyGraph(), sim.NewMetrics(), DefaultOptions())
	a, b := ident.FromUint64(100), ident.FromUint64(200)
	if _, err := in.Join(a, 1, Multihomed); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Join(b, 6, Multihomed); err != nil {
		t.Fatal(err)
	}
	res, err := in.Route(a, b)
	if want := []topology.ASN{1, 2, 5, 6}; err != nil || !res.Delivered || !slices.Equal(res.Traversed, want) {
		t.Fatalf("route = %+v, %v; want delivery along %v", res, err, want)
	}
	if calls.down != 2 || calls.differ != 1 {
		t.Fatalf("%+v: want two descending segment hops, the one at AS 2 where a fresh search climbs", *calls)
	}
}

// TestSegmentHopsMatchFreshSearch holds every hop route takes from a
// stored segment to a fresh search, on the Internets
// TestSelectPointerMatchesExhaustiveScan routes over. Past a provider
// link they agree by construction; past a customer or peer link a fresh
// search could climb again, and on these graphs it never leaves by
// another link either.
func TestSegmentHopsMatchFreshSearch(t *testing.T) {
	settled := func(t *testing.T, calls *hopCalls) {
		t.Helper()
		if calls.up+calls.down == 0 {
			t.Fatal("no hop was taken from a stored segment")
		}
		if calls.differ != 0 {
			t.Fatalf("%d of %d descending segment hops differ from a fresh search", calls.differ, calls.down)
		}
		t.Logf("%d hops past a provider link, %d past a customer or peer link", calls.up, calls.down)
	}
	t.Run("default multihomed", func(t *testing.T) {
		calls := checkHops(t)
		g := topology.GenAS(topology.DefaultASGen())
		in := New(g, sim.NewMetrics(), DefaultOptions())
		routePairs(t, in, joinMany(t, in, g, 3000, Multihomed, 7), 1500, 8)
		settled(t, calls)
	})
	t.Run("churn soak", func(t *testing.T) {
		calls := checkHops(t)
		for _, seed := range []int64{11, 22, 33} {
			interSoak(t, seed, 150)
		}
		settled(t, calls)
	})
	t.Run("pointer caches", func(t *testing.T) {
		calls := checkHops(t)
		opts := DefaultOptions()
		opts.CacheCapacity = 200
		in, g := genInternet(t, opts)
		ids := joinMany(t, in, g, 400, Multihomed, 15)
		for pass := 0; pass < 2; pass++ {
			routePairs(t, in, ids, 400, 16)
		}
		settled(t, calls)
	})
	t.Run("bloom peering", func(t *testing.T) {
		calls := checkHops(t)
		opts := DefaultOptions()
		opts.BloomPeering = true
		in, g := genInternet(t, opts)
		routePairs(t, in, joinMany(t, in, g, 300, Peering, 17), 300, 18)
		settled(t, calls)
	})
	t.Run("stale pointer", func(t *testing.T) {
		calls := checkHops(t)
		in, a, b := twoLevelInternet(t)
		in.FailASLink(5, 2)
		if _, err := in.Route(a, b); err != nil {
			t.Fatal(err)
		}
		settled(t, calls)
	})
}

// TestLevelListsFollowResidents: an AS stores each distinct level list of
// its residents once, through joins under every strategy, leaves, and a
// failure that migrates a resident to its standby provider.
func TestLevelListsFollowResidents(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	lists := func(a topology.ASN, want int) {
		t.Helper()
		if err := in.CheckRings(); err != nil {
			t.Fatal(err)
		}
		if got := len(in.AS(a).levelLists); got != want {
			t.Fatalf("AS %d stores %d level lists, want %d", a, got, want)
		}
	}
	id := func(s string) ident.ID { return ident.FromString("lists-" + s) }
	for _, j := range []struct {
		name string
		s    Strategy
	}{{"m1", Multihomed}, {"m2", Multihomed}, {"e1", Ephemeral}, {"s1", SingleHomed}} {
		if _, err := in.Join(id(j.name), 4, j.s); err != nil {
			t.Fatal(err)
		}
	}
	// On this tree a single-homed join covers the same levels as a
	// multihomed one: two lists, m1's shared by m2 and s1.
	lists(4, 2)
	if m1, m2 := in.vnOf(id("m1")).levels, in.vnOf(id("m2")).levels; &m1[0] != &m2[0] {
		t.Fatal("equal level lists are not shared")
	}
	if err := in.Leave(id("m1")); err != nil {
		t.Fatal(err)
	}
	lists(4, 2) // m2 and s1 still hold it
	if err := in.Leave(id("e1")); err != nil {
		t.Fatal(err)
	}
	lists(4, 1)
	if err := in.HostVirtual(id("m2"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Join(id("at2"), 2, Multihomed); err != nil {
		t.Fatal(err)
	}
	in.FailAS(4)
	lists(4, 0)
	lists(2, 1) // m2 rejoined at 2 with the levels at2 holds
	if err := in.Leave(id("at2")); err != nil {
		t.Fatal(err)
	}
	lists(2, 1)
	if err := in.Leave(id("m2")); err != nil {
		t.Fatal(err)
	}
	lists(2, 0)
}

// TestCheckRingsCatchesLevelListCorruption: CheckRings flags an AS whose
// level lists are not exactly its residents' distinct ones.
func TestCheckRingsCatchesLevelListCorruption(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	for _, s := range []string{"a", "b"} {
		if _, err := in.Join(ident.FromString(s), 4, Multihomed); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := in.Join(ident.FromString("c"), 4, Ephemeral); err != nil {
		t.Fatal(err)
	}
	as := in.AS(4)
	caught := func(what, msg string) {
		t.Helper()
		if err := in.CheckRings(); !errors.Is(err, errRingBroken) || !strings.Contains(err.Error(), msg) {
			t.Fatalf("%s not caught: %v", what, err)
		}
	}
	if err := in.CheckRings(); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}
	saved := slices.Clone(as.levelLists)
	restore := func() {
		t.Helper()
		as.levelLists = slices.Clone(saved)
		if err := in.CheckRings(); err != nil {
			t.Fatalf("restored state flagged: %v", err)
		}
	}

	as.levelLists = saved[:1]
	caught("a resident's list missing", "does not share")
	restore()

	vn := as.Resident(ident.FromString("a"))
	vn.levels = slices.Clone(vn.levels)
	caught("an equal list not shared", "does not share")
	vn.levels = as.Resident(ident.FromString("b")).levels
	restore()

	as.levelLists = append(as.levelLists, []*level{in.level(asRoot(2))})
	caught("a list no resident holds", "no resident joined")
	restore()

	as.levelLists = append(as.levelLists, slices.Clone(saved[0]))
	caught("a list stored twice", "twice")
	restore()
}
