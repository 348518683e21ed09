package canon

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rofl/internal/baseline/bgppolicy"
	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// smallAS is the paper's Figure 3 hierarchy plus tiers:
//
//	    1        (tier 1)
//	   / \
//	  2   3      (tier 2)
//	 / \
//	4   5        (stubs)
func smallAS() *topology.ASGraph {
	g := topology.NewASGraph(6)
	g.SetRelation(2, 1, topology.RelProvider)
	g.SetRelation(3, 1, topology.RelProvider)
	g.SetRelation(4, 2, topology.RelProvider)
	g.SetRelation(5, 2, topology.RelProvider)
	g.SetTier(1, 1)
	g.SetTier(2, 2)
	g.SetTier(3, 2)
	g.SetTier(4, 3)
	g.SetTier(5, 3)
	return g
}

func newSmall(t *testing.T, opts Options) *Internet {
	t.Helper()
	return New(smallAS(), sim.NewMetrics(), opts)
}

// genInternet builds a reduced Internet-like AS graph for heavier tests.
func genInternet(t *testing.T, opts Options) (*Internet, *topology.ASGraph) {
	t.Helper()
	g := topology.GenAS(topology.ASGenConfig{
		Tier1: 4, Tier2: 15, Stubs: 60,
		Hosts: 2000, ZipfS: 1.1,
		PeerProb: 0.2, BackupProb: 0.3, Seed: 42,
	})
	return New(g, sim.NewMetrics(), opts), g
}

func TestJoinFigure3Successors(t *testing.T) {
	// Reproduce the paper's Figure 3: identifiers 8 (AS 4), 20 (AS 4's
	// sibling space), 16 (AS 5), 14 (AS 3). After joining, node 8's
	// successor at level AS4 is 20, at level AS2 is 16, at level AS1
	// (here: Top) is 14... per the figure, successor ordering follows the
	// circular namespace within each subtree.
	in := newSmall(t, DefaultOptions())
	id8 := ident.FromUint64(8)
	id20 := ident.FromUint64(20)
	id16 := ident.FromUint64(16)
	id14 := ident.FromUint64(14)
	mustJoin := func(id ident.ID, at topology.ASN) {
		if _, err := in.Join(id, at, Multihomed); err != nil {
			t.Fatal(err)
		}
	}
	mustJoin(id8, 4)
	mustJoin(id20, 4)
	mustJoin(id16, 5)
	mustJoin(id14, 3)

	vn8 := in.vnOf(id8)
	if vn8 == nil {
		t.Fatal("8 not joined")
	}
	if got, _ := vn8.Succ(asRoot(4)); got.ID != id20 {
		t.Fatalf("succ at AS4 = %s want 20", got.ID.Short())
	}
	if got, _ := vn8.Succ(asRoot(2)); got.ID != id16 {
		t.Fatalf("succ at AS2 = %s want 16", got.ID.Short())
	}
	// At the global level the first ID clockwise of 8 overall is 14
	// (hosted in AS 3).
	if got, _ := vn8.Succ(Top); got.ID != id14 {
		t.Fatalf("succ at Top = %s want 14", got.ID.Short())
	}
	if err := in.CheckRings(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinStrategiesLevelCounts(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	cases := []struct {
		s         Strategy
		minLevels int
	}{
		{Ephemeral, 1},
		{SingleHomed, 4}, // AS4, AS2, AS1, Top
		{Multihomed, 4},
	}
	for i, c := range cases {
		id := ident.FromString(fmt.Sprintf("strat-%d", i))
		res, err := in.Join(id, 4, c.s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Levels < c.minLevels {
			t.Fatalf("%v: levels = %d want >= %d", c.s, res.Levels, c.minLevels)
		}
		if c.s == Ephemeral && res.Levels != 1 {
			t.Fatalf("ephemeral joined %d levels", res.Levels)
		}
	}
}

func TestJoinDuplicateRejected(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	id := ident.FromString("dup")
	if _, err := in.Join(id, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Join(id, 5, Multihomed); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("want ErrDuplicateID, got %v", err)
	}
}

func TestJoinOverheadOrdering(t *testing.T) {
	// Fig 8a: ephemeral < single-homed <= rec. multihomed <= peering.
	in, g := genInternet(t, DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	stubs := g.Stubs()
	cost := map[Strategy]float64{}
	for _, s := range []Strategy{Ephemeral, SingleHomed, Multihomed, Peering} {
		total := 0
		const trials = 40
		for i := 0; i < trials; i++ {
			id := ident.FromString(fmt.Sprintf("%v-%d", s, i))
			at := stubs[rng.Intn(len(stubs))]
			res, err := in.Join(id, at, s)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Msgs
		}
		cost[s] = float64(total) / trials
	}
	t.Logf("join costs: eph=%.1f single=%.1f multi=%.1f peering=%.1f",
		cost[Ephemeral], cost[SingleHomed], cost[Multihomed], cost[Peering])
	if !(cost[Ephemeral] < cost[SingleHomed]) {
		t.Fatalf("ephemeral (%.1f) should be cheapest (single %.1f)", cost[Ephemeral], cost[SingleHomed])
	}
	if cost[Multihomed] < cost[SingleHomed]*0.8 {
		t.Fatalf("multihomed (%.1f) should not undercut single-homed (%.1f)", cost[Multihomed], cost[SingleHomed])
	}
	if !(cost[Peering] > cost[Multihomed]) {
		t.Fatalf("peering (%.1f) should exceed multihomed (%.1f)", cost[Peering], cost[Multihomed])
	}
	if err := in.CheckRings(); err != nil {
		t.Fatal(err)
	}
}

func TestBloomPeeringReducesJoinCost(t *testing.T) {
	// §6.3: "using the bloom filter optimization reduced the overhead of
	// the peering join to be equal to the overhead of the recursively
	// multihomed join".
	run := func(bloomOn bool) float64 {
		opts := DefaultOptions()
		opts.BloomPeering = bloomOn
		in, g := genInternet(t, opts)
		rng := rand.New(rand.NewSource(2))
		stubs := g.Stubs()
		total := 0
		const trials = 40
		for i := 0; i < trials; i++ {
			id := ident.FromString(fmt.Sprintf("bp-%d", i))
			res, err := in.Join(id, stubs[rng.Intn(len(stubs))], Peering)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Msgs
		}
		return float64(total) / trials
	}
	virtual := run(false)
	bloomed := run(true)
	if !(bloomed < virtual) {
		t.Fatalf("bloom peering join (%.1f) should undercut virtual-AS join (%.1f)", bloomed, virtual)
	}
}

func joinMany(t *testing.T, in *Internet, g *topology.ASGraph, count int, s Strategy, seed int64) []ident.ID {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Join at ASes weighted by their host counts.
	var pool []topology.ASN
	for a := 0; a < g.NumASes(); a++ {
		if g.Hosts(topology.ASN(a)) > 0 {
			pool = append(pool, topology.ASN(a))
		}
	}
	ids := make([]ident.ID, 0, count)
	for i := 0; i < count; i++ {
		id := ident.FromString(fmt.Sprintf("host-%d-%d", seed, i))
		at := pool[rng.Intn(len(pool))]
		if _, err := in.Join(id, at, s); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestRouteDeliversAndIsolates(t *testing.T) {
	in, g := genInternet(t, DefaultOptions())
	ids := joinMany(t, in, g, 200, Multihomed, 3)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		src := ids[rng.Intn(len(ids))]
		dst := ids[rng.Intn(len(ids))]
		if src == dst {
			continue
		}
		res, err := in.Route(src, dst)
		if err != nil {
			t.Fatalf("route %s->%s: %v", src.Short(), dst.Short(), err)
		}
		if !res.Delivered {
			t.Fatal("not delivered")
		}
		dstAS, _ := in.HostingAS(dst)
		if res.FinalAS != dstAS {
			t.Fatalf("delivered to AS %d, hosted at %d", res.FinalAS, dstAS)
		}
	}
	// State-level isolation — the invariant the paper's simulator checks
	// — must hold exactly.
	if err := in.CheckIsolationState(); err != nil {
		t.Fatal(err)
	}
	// Per-packet minimal-subtree isolation is a diagnostic on DAGs; it
	// must at least hold for a majority of pairs here.
	miss := in.Metrics.Counter(CtrIsolationViolations)
	t.Logf("strict per-packet isolation misses: %d", miss)
}

func TestRouteIntraASIsFree(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	a := ident.FromString("a")
	b := ident.FromString("b")
	if _, err := in.Join(a, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Join(b, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	res, err := in.Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.ASHops != 0 {
		t.Fatalf("intra-AS route took %d AS hops; isolation demands 0", res.ASHops)
	}
}

func TestIsolationSiblingSubtree(t *testing.T) {
	// Hosts in AS 4 and AS 5 share provider AS 2: their traffic must stay
	// within subtree(2) and never touch AS 1 or AS 3.
	in := newSmall(t, DefaultOptions())
	a := ident.FromString("in-4")
	b := ident.FromString("in-5")
	other := ident.FromString("in-3")
	for _, j := range []struct {
		id ident.ID
		as topology.ASN
	}{{a, 4}, {b, 5}, {other, 3}} {
		if _, err := in.Join(j.id, j.as, Multihomed); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range res.Traversed {
		if as == 1 || as == 3 {
			t.Fatalf("packet escaped subtree(2): %v", res.Traversed)
		}
	}
	if !res.StrictlyIsolated {
		t.Fatal("isolation flag wrong")
	}
}

func TestFingersReduceStretch(t *testing.T) {
	// Fig 8b: more fingers → lower stretch vs the BGP baseline.
	stretch := func(budget int) float64 {
		opts := DefaultOptions()
		opts.FingerBudget = budget
		in, g := genInternet(t, opts)
		ids := joinMany(t, in, g, 250, Multihomed, 5)
		bgp := bgppolicy.New(g)
		rng := rand.New(rand.NewSource(6))
		var total float64
		var n int
		for i := 0; i < 250; i++ {
			src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if src == dst {
				continue
			}
			res, err := in.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			srcAS, _ := in.HostingAS(src)
			dstAS, _ := in.HostingAS(dst)
			base := bgp.Hops(srcAS, dstAS, nil)
			if base <= 0 {
				continue
			}
			total += float64(res.ASHops) / float64(base)
			n++
		}
		return total / float64(n)
	}
	none := stretch(0)
	many := stretch(160)
	t.Logf("stretch: fingers=0 %.2f, fingers=160 %.2f", none, many)
	if !(many < none) {
		t.Fatalf("fingers should reduce stretch: %v vs %v", many, none)
	}
	if many < 1.0 {
		// Mean stretch can dip slightly under 1 only if ROFL beat BGP,
		// which the level discipline makes impossible on average.
		t.Fatalf("stretch %.2f implausibly low", many)
	}
}

func TestCachingReducesStretch(t *testing.T) {
	// Fig 8c: AS pointer caches cut stretch further.
	stretch := func(capacity int) float64 {
		opts := DefaultOptions()
		opts.CacheCapacity = capacity
		in, g := genInternet(t, opts)
		ids := joinMany(t, in, g, 200, Multihomed, 7)
		bgp := bgppolicy.New(g)
		rng := rand.New(rand.NewSource(8))
		var total float64
		var n int
		// Two passes so the second pass hits warm caches.
		for pass := 0; pass < 2; pass++ {
			rng = rand.New(rand.NewSource(8))
			total, n = 0, 0
			for i := 0; i < 200; i++ {
				src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				if src == dst {
					continue
				}
				res, err := in.Route(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				srcAS, _ := in.HostingAS(src)
				dstAS, _ := in.HostingAS(dst)
				base := bgp.Hops(srcAS, dstAS, nil)
				if base <= 0 {
					continue
				}
				total += float64(res.ASHops) / float64(base)
				n++
			}
		}
		return total / float64(n)
	}
	cold := stretch(0)
	warm := stretch(5000)
	t.Logf("stretch: cache=0 %.2f, cache=5000 %.2f", cold, warm)
	if !(warm < cold) {
		t.Fatalf("caching should reduce stretch: %v vs %v", warm, cold)
	}
}

func TestBloomPeeringRoutes(t *testing.T) {
	opts := DefaultOptions()
	opts.BloomPeering = true
	in, g := genInternet(t, opts)
	ids := joinMany(t, in, g, 200, Peering, 9)
	rng := rand.New(rand.NewSource(10))
	delivered := 0
	for i := 0; i < 150; i++ {
		src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if src == dst {
			continue
		}
		res, err := in.Route(src, dst)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		if res.Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("nothing delivered under bloom peering")
	}
}

func TestStubFailureRepair(t *testing.T) {
	// §6.3: failing a stub AS tears down its identifiers with repair cost
	// on the order of the number of identifiers hosted, and leaves the
	// rings consistent.
	in, g := genInternet(t, DefaultOptions())
	ids := joinMany(t, in, g, 300, Multihomed, 11)
	// Find a stub hosting at least one identifier.
	var victim topology.ASN = -1
	for _, s := range g.Stubs() {
		if len(in.AS(s).VNs) > 0 {
			victim = s
			break
		}
	}
	if victim == -1 {
		t.Skip("no populated stub")
	}
	before := in.Metrics.Counter(MsgRepair)
	dead := in.FailAS(victim)
	if dead == 0 {
		t.Fatal("no identifiers torn down")
	}
	repair := in.Metrics.Counter(MsgRepair) - before
	if repair == 0 {
		t.Fatal("repair must cost messages")
	}
	// Same order of magnitude as #identifiers × levels (loose bound).
	if repair > int64(dead*400) {
		t.Fatalf("repair cost %d way beyond %d identifiers", repair, dead)
	}
	if err := in.CheckRings(); err != nil {
		t.Fatalf("rings broken after stub failure: %v", err)
	}
	// Routing between surviving identifiers still works.
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if src == dst {
			continue
		}
		if _, okSrc := in.HostingAS(src); !okSrc {
			continue
		}
		if _, okDst := in.HostingAS(dst); !okDst {
			continue
		}
		if _, err := in.Route(src, dst); err != nil {
			t.Fatalf("route after failure: %v", err)
		}
	}
	if in.FailAS(victim) != 0 {
		t.Fatal("double failure should be a no-op")
	}
}

func TestLeave(t *testing.T) {
	in, g := genInternet(t, DefaultOptions())
	ids := joinMany(t, in, g, 50, Multihomed, 13)
	for _, id := range ids[:10] {
		if err := in.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.CheckRings(); err != nil {
		t.Fatalf("rings broken after leaves: %v", err)
	}
	if err := in.Leave(ids[0]); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double leave: %v", err)
	}
	for i := 10; i < 30; i++ {
		if _, err := in.Route(ids[i], ids[i+1]); err != nil {
			t.Fatalf("route after leaves: %v", err)
		}
	}
}

func TestMultihomingFailover(t *testing.T) {
	// §2.3: "where one access link of a multi-homed AS goes down,
	// incoming and outgoing traffic will be automatically shifted to the
	// other access links."
	g := topology.NewASGraph(5)
	// Stub 4 multihomed to providers 2 and 3, both customers of core 1.
	g.SetRelation(2, 1, topology.RelProvider)
	g.SetRelation(3, 1, topology.RelProvider)
	g.SetRelation(4, 2, topology.RelProvider)
	g.SetRelation(4, 3, topology.RelProvider)
	g.SetTier(1, 1)
	g.SetTier(2, 2)
	g.SetTier(3, 2)
	g.SetTier(4, 3)
	in := New(g, sim.NewMetrics(), DefaultOptions())
	a := ident.FromString("multihomed-host")
	b := ident.FromString("remote-host")
	if _, err := in.Join(a, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Join(b, 3, Multihomed); err != nil {
		t.Fatal(err)
	}
	res1, err := in.Route(b, a)
	if err != nil || !res1.Delivered {
		t.Fatalf("baseline route: %+v %v", res1, err)
	}
	// Kill the 4–2 access link; traffic must shift to 4–3.
	in.FailASLink(4, 2)
	res2, err := in.Route(b, a)
	if err != nil || !res2.Delivered {
		t.Fatalf("route after access-link failure: %+v %v", res2, err)
	}
	for i := 1; i < len(res2.Traversed); i++ {
		x, y := res2.Traversed[i-1], res2.Traversed[i]
		if (x == 4 && y == 2) || (x == 2 && y == 4) {
			t.Fatalf("path still uses failed link: %v", res2.Traversed)
		}
	}
	in.RestoreASLink(4, 2)
	if in.LinkFailed(4, 2) {
		t.Fatal("restore failed")
	}
}

func TestBackupLinkActivatesOnlyOnFailure(t *testing.T) {
	g := topology.NewASGraph(5)
	g.SetRelation(2, 1, topology.RelProvider)
	g.SetRelation(3, 1, topology.RelProvider)
	g.SetRelation(4, 2, topology.RelProvider)
	g.SetRelation(4, 3, topology.RelBackup) // backup provider
	g.SetTier(1, 1)
	g.SetTier(2, 2)
	g.SetTier(3, 2)
	g.SetTier(4, 3)
	in := New(g, sim.NewMetrics(), DefaultOptions())
	// With the primary up, upward paths go via 2.
	p := in.pathWithin(Top, 4, 3)
	if p == nil {
		t.Fatal("no path 4->3")
	}
	if p[1] != 2 {
		t.Fatalf("primary path should ascend via 2: %v", p)
	}
	// Fail the primary: backup 4–3 activates.
	in.FailASLink(4, 2)
	p = in.pathWithin(Top, 4, 3)
	if p == nil {
		t.Fatal("backup path missing")
	}
	if p[1] != 3 {
		t.Fatalf("backup path should ascend via 3: %v", p)
	}
}

// A failure under the pointer a route has selected makes that pointer
// stale at its level: the route must mark it, then deliver through
// another level or report ErrNoRoute — never spin on the same pointer
// until the TTL runs out. Stub 5 is multihomed to 2 and 3; a (100) at 4
// and b (200) at 5 share levels AS2, AS1 and Top, and AS2 is the lowest.
func TestRouteAroundStalePointer(t *testing.T) {
	a, b := ident.FromUint64(100), ident.FromUint64(200)
	cases := []struct {
		name string
		fail func(in *Internet)
		dst  ident.ID
		want []topology.ASN // the delivered path; nil wants ErrNoRoute
	}{
		// Only AS2's path 4-2-5 used the link; AS1's delivers.
		{"policy link", func(in *Internet) { in.FailASLink(5, 2) }, b, []topology.ASN{4, 2, 1, 3, 5}},
		// 4's only provider is gone: no level has a path.
		{"transit AS", func(in *Internet) { in.FailAS(2) }, b, nil},
		// No failure: the packet reaches the absent label's predecessor,
		// b, and stops there.
		{"absent destination", func(*Internet) {}, ident.FromUint64(300), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := topology.NewASGraph(6)
			g.SetRelation(2, 1, topology.RelProvider)
			g.SetRelation(3, 1, topology.RelProvider)
			g.SetRelation(4, 2, topology.RelProvider)
			g.SetRelation(5, 2, topology.RelProvider)
			g.SetRelation(5, 3, topology.RelProvider)
			g.SetTier(1, 1)
			g.SetTier(2, 2)
			g.SetTier(3, 2)
			g.SetTier(4, 3)
			g.SetTier(5, 3)
			in := New(g, sim.NewMetrics(), DefaultOptions())
			if _, err := in.Join(a, 4, Multihomed); err != nil {
				t.Fatal(err)
			}
			if _, err := in.Join(b, 5, Multihomed); err != nil {
				t.Fatal(err)
			}
			c.fail(in)
			res, err := in.Route(a, c.dst)
			switch {
			case c.want == nil && !errors.Is(err, ErrNoRoute):
				t.Fatalf("route = %+v, %v; want ErrNoRoute", res, err)
			case c.want != nil && (err != nil || !res.Delivered || !slices.Equal(res.Traversed, c.want)):
				t.Fatalf("route = %+v, %v; want delivery along %v", res, err, c.want)
			}
		})
	}
}

func TestRouteFromAS(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	a := ident.FromString("a")
	if _, err := in.Join(a, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	b := ident.FromString("b")
	if _, err := in.Join(b, 5, Multihomed); err != nil {
		t.Fatal(err)
	}
	res, err := in.RouteFromAS(4, b)
	if err != nil || !res.Delivered {
		t.Fatalf("RouteFromAS: %+v %v", res, err)
	}
	if _, err := in.RouteFromAS(3, b); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("empty AS should fail: %v", err)
	}
}

func TestRouteUnknownSource(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	if _, err := in.Route(ident.FromString("nope"), ident.FromString("x")); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("want ErrUnknownID, got %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	for _, s := range []Strategy{Ephemeral, SingleHomed, Multihomed, Peering, Strategy(99)} {
		if s.String() == "" {
			t.Fatal("strategy must render")
		}
	}
}

func TestDeterministicJoins(t *testing.T) {
	run := func() int {
		in, g := genInternet(t, DefaultOptions())
		total := 0
		rng := rand.New(rand.NewSource(14))
		stubs := g.Stubs()
		for i := 0; i < 30; i++ {
			id := ident.FromString(fmt.Sprintf("det-%d", i))
			res, err := in.Join(id, stubs[rng.Intn(len(stubs))], Multihomed)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Msgs
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("joins not deterministic: %d vs %d", a, b)
	}
}

func TestTreeHierarchyStrictIsolationAlwaysHolds(t *testing.T) {
	// On a pure tree (every AS single-parent), the paper's per-packet
	// isolation guarantee is provable: every delivered packet stays
	// within the subtree of the earliest common ancestor. Build a
	// three-level tree and route all pairs.
	g := topology.NewASGraph(13)
	g.SetTier(0, 1)
	// Tier 2: 1..3 under 0; tier 3: 4..12 under them.
	for i := 1; i <= 3; i++ {
		g.SetRelation(topology.ASN(i), 0, topology.RelProvider)
		g.SetTier(topology.ASN(i), 2)
	}
	for i := 4; i <= 12; i++ {
		parent := topology.ASN((i-4)/3 + 1)
		g.SetRelation(topology.ASN(i), parent, topology.RelProvider)
		g.SetTier(topology.ASN(i), 3)
	}
	in := New(g, sim.NewMetrics(), DefaultOptions())
	var ids []ident.ID
	for i := 4; i <= 12; i++ {
		for j := 0; j < 4; j++ {
			id := ident.FromString(fmt.Sprintf("tree-%d-%d", i, j))
			if _, err := in.Join(id, topology.ASN(i), Multihomed); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	for _, src := range ids {
		for _, dst := range ids {
			if src == dst {
				continue
			}
			res, err := in.Route(src, dst)
			if err != nil {
				t.Fatalf("route: %v", err)
			}
			if !res.StrictlyIsolated {
				srcAS, _ := in.HostingAS(src)
				dstAS, _ := in.HostingAS(dst)
				t.Fatalf("tree isolation broken: %d->%d path %v", srcAS, dstAS, res.Traversed)
			}
		}
	}
	if in.Metrics.Counter(CtrIsolationViolations) != 0 {
		t.Fatal("tree hierarchies must never violate per-packet isolation")
	}
	if err := in.CheckIsolationState(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckIsolationStateCatchesCorruption(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	a := ident.FromString("a")
	b := ident.FromString("b")
	e := ident.FromString("e")
	if _, err := in.Join(a, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Join(b, 3, Multihomed); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Join(e, 4, Ephemeral); err != nil {
		t.Fatal(err)
	}
	clean := func() {
		t.Helper()
		if err := in.CheckIsolationState(); err != nil {
			t.Fatalf("clean state flagged: %v", err)
		}
		if err := in.CheckRings(); err != nil {
			t.Fatalf("clean state flagged: %v", err)
		}
	}
	clean()
	// plant inserts p into AS 4's ring behind the join's back and returns
	// the undo.
	lv := in.level(asRoot(4))
	plant := func(p Ptr) (undo func()) {
		i := lv.search(p.ID)
		lv.ring = slices.Insert(lv.ring, i, p)
		return func() { lv.ring = slices.Delete(lv.ring, i, i+1) }
	}

	// A foreign member: a's neighbour at level AS4 becomes the node in
	// AS 3 — outside subtree(4).
	undo := plant(Ptr{ID: b, AS: 3})
	if err := in.CheckIsolationState(); !errors.Is(err, ErrRingBroken) {
		t.Fatalf("member outside the subtree not caught: %v", err)
	}
	if err := in.CheckRings(); !errors.Is(err, ErrRingBroken) {
		t.Fatalf("member outside the subtree not caught by CheckRings: %v", err)
	}
	undo()
	clean()

	// A member that never joined the level: e is hosted inside the
	// subtree but joined the global ring only. Isolation holds; the ring
	// does not.
	undo = plant(Ptr{ID: e, AS: 4})
	if err := in.CheckIsolationState(); err != nil {
		t.Fatalf("a member inside the subtree breaks no isolation: %v", err)
	}
	if err := in.CheckRings(); !errors.Is(err, ErrRingBroken) || !strings.Contains(err.Error(), "never joined") {
		t.Fatalf("ring holding a member that never joined it not caught: %v", err)
	}
	undo()
	clean()

	// The converse: a node that joined a level whose ring has lost it.
	i := lv.search(a)
	lv.ring = slices.Delete(lv.ring, i, i+1)
	if err := in.CheckRings(); !errors.Is(err, ErrRingBroken) || !strings.Contains(err.Error(), "does not hold it") {
		t.Fatalf("node missing from a ring it joined not caught: %v", err)
	}
}

// TestCheckRingsCatchesResidentCorruption plants faults in an AS's
// resident table beneath correct rings: two residents out of identifier
// order, and a resident the oracle does not host there.
func TestCheckRingsCatchesResidentCorruption(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	a := ident.FromString("a")
	for _, id := range []ident.ID{a, ident.FromString("c")} {
		if _, err := in.Join(id, 4, Multihomed); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := in.Join(ident.FromString("b"), 3, Multihomed); err != nil {
		t.Fatal(err)
	}
	clean := func() {
		t.Helper()
		if err := in.CheckRings(); err != nil {
			t.Fatalf("clean state flagged: %v", err)
		}
	}
	caught := func(what, msg string) {
		t.Helper()
		if err := in.CheckRings(); !errors.Is(err, ErrRingBroken) || !strings.Contains(err.Error(), msg) {
			t.Fatalf("%s not caught: %v", what, err)
		}
	}
	clean()

	vns := in.AS(4).VNs
	vns[0], vns[1] = vns[1], vns[0]
	caught("resident out of order", "out of order")
	vns[0], vns[1] = vns[1], vns[0]
	clean()

	as := in.AS(4)
	ghost := &VNode{ID: ident.FromString("ghost"), AS: 4}
	i := as.search(ghost.ID)
	as.VNs = slices.Insert(as.VNs, i, ghost)
	caught("resident hosted nowhere", "not hosted there")
	as.VNs = slices.Delete(as.VNs, i, i+1)
	clean()
}

func TestAccessorsAndStrings(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	if in.Options() != DefaultOptions() {
		t.Fatal("Options round trip")
	}
	a := ident.FromString("acc")
	if _, err := in.Join(a, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	if in.NumJoined() != 1 {
		t.Fatalf("NumJoined = %d", in.NumJoined())
	}
	if in.RingSize(Top) != 1 {
		t.Fatalf("RingSize(Top) = %d", in.RingSize(Top))
	}
	vn := in.vnOf(a)
	roots := vn.Roots()
	if len(roots) == 0 || roots[len(roots)-1] != Top {
		t.Fatalf("Roots = %v (Top must sort last)", roots)
	}
	if _, ok := vn.Succ(asRoot(3)); ok {
		t.Fatal("a node under AS 2 has no successor in AS 3's ring")
	}
	for _, r := range []Root{asRoot(7), peerRoot(9, 3), Top, {Kind: RootKind(9)}} {
		if r.String() == "" {
			t.Fatal("Root.String must render")
		}
	}
	if peerRoot(9, 3) != peerRoot(3, 9) {
		t.Fatal("peerRoot must normalize order")
	}
}

func TestFingerBackInsertion(t *testing.T) {
	// An early joiner must learn about later joiners through the §4.1
	// back-insertion multicast.
	opts := DefaultOptions()
	opts.FingerBudget = 60
	in, g := genInternet(t, opts)
	first := ident.FromString("early-bird")
	stubs := g.Stubs()
	if _, err := in.Join(first, stubs[0], Multihomed); err != nil {
		t.Fatal(err)
	}
	if len(in.vnOf(first).Fingers) != 0 {
		t.Fatal("sole node cannot have fingers yet")
	}
	joinMany(t, in, g, 60, Multihomed, 31)
	if len(in.vnOf(first).Fingers) == 0 {
		t.Fatal("back-insertion must populate the early joiner's table")
	}
	// All fingers respect the isolation constraint.
	if err := in.CheckIsolationState(); err != nil {
		t.Fatal(err)
	}
}

func TestSweepFingersOnASFailure(t *testing.T) {
	opts := DefaultOptions()
	opts.FingerBudget = 60
	in, g := genInternet(t, opts)
	ids := joinMany(t, in, g, 120, Multihomed, 32)
	_ = ids
	// Find a stub with members and fail it; no surviving finger may
	// point there.
	var victim topology.ASN = -1
	for _, s := range g.Stubs() {
		if len(in.AS(s).VNs) > 0 {
			victim = s
			break
		}
	}
	if victim == -1 {
		t.Skip("no populated stub")
	}
	in.FailAS(victim)
	for a := 0; a < g.NumASes(); a++ {
		for _, vn := range in.AS(topology.ASN(a)).VNs {
			for _, f := range vn.Fingers {
				if f.AS == victim {
					t.Fatalf("finger still points at dead AS %d", victim)
				}
			}
		}
	}
}

func TestVirtualServerSurvivesOutage(t *testing.T) {
	// §4.1: "an ISP may host virtual servers on behalf of a customer ISP,
	// which it can maintain during that customer's outages."
	in := newSmall(t, DefaultOptions())
	srv := ident.FromString("virtual-hosted")
	other := ident.FromString("client-elsewhere")
	if _, err := in.Join(srv, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Join(other, 3, Multihomed); err != nil {
		t.Fatal(err)
	}
	// Provider AS 2 stands by for srv.
	if err := in.HostVirtual(srv, 2); err != nil {
		t.Fatal(err)
	}
	// A non-provider cannot stand by.
	if err := in.HostVirtual(srv, 3); err == nil {
		t.Fatal("AS 3 is not in srv's up-hierarchy")
	}
	if err := in.HostVirtual(ident.FromString("ghost"), 2); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown id: %v", err)
	}

	removed := in.FailAS(4)
	if removed != 0 {
		t.Fatalf("removed = %d, want 0 (migrated)", removed)
	}
	if as, ok := in.HostingAS(srv); !ok || as != 2 {
		t.Fatalf("srv hosted at %d, want provider 2", as)
	}
	if err := in.CheckRings(); err != nil {
		t.Fatal(err)
	}
	// Still reachable from the other side of the hierarchy.
	res, err := in.Route(other, srv)
	if err != nil || !res.Delivered || res.FinalAS != 2 {
		t.Fatalf("route to migrated server: %+v %v", res, err)
	}
}

func TestFailASWithoutStandbyStillRemoves(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	srv := ident.FromString("no-standby")
	if _, err := in.Join(srv, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	if removed := in.FailAS(4); removed != 1 {
		t.Fatalf("removed = %d", removed)
	}
	if _, ok := in.HostingAS(srv); ok {
		t.Fatal("identifier should be gone")
	}
}
