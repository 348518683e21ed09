package vring

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// testISP is a small but non-trivial ISP: 6 PoPs, ~40 routers.
func testISP() *topology.ISP {
	return topology.GenISP(topology.ISPConfig{
		Name: "test", Routers: 40, PoPs: 6, BackbonePerPoP: 2, PoPDegree: 2,
		IntraPoPDelay: 0.5, InterPoPDelay: 5, Hosts: 100, ZipfS: 1.2, Seed: 7,
	})
}

// numHosts counts the non-default resident identifiers.
func numHosts(n *Network) int {
	return len(n.hostedAt) - len(n.Routers) // default VNs excluded
}

func newTestNet(t *testing.T, opts Options) (*Network, *topology.ISP) {
	t.Helper()
	isp := testISP()
	m := sim.NewMetrics()
	return New(isp.Graph, m, opts), isp
}

// joinN joins n deterministic host IDs at round-robin access routers.
func joinN(t *testing.T, n *Network, isp *topology.ISP, count int) []ident.ID {
	t.Helper()
	joins := joinResults(t, n, isp, count)
	ids := make([]ident.ID, len(joins))
	for i, j := range joins {
		ids[i] = j.VN.ID
	}
	return ids
}

// joinResults joins like joinN and returns each join's result.
func joinResults(t *testing.T, n *Network, isp *topology.ISP, count int) []JoinResult {
	t.Helper()
	joins := make([]JoinResult, 0, count)
	for i := 0; i < count; i++ {
		id := ident.FromString(fmt.Sprintf("host-%d", i))
		at := isp.Access[i%len(isp.Access)]
		res, err := n.JoinHost(id, at)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		joins = append(joins, res)
	}
	return joins
}

// joinSummary summarizes one quantity of each join's result.
func joinSummary(joins []JoinResult, of func(JoinResult) float64) sim.Summary {
	vs := make([]float64, len(joins))
	for i, j := range joins {
		vs[i] = of(j)
	}
	return sim.Summarize(vs)
}

func joinMsgs(j JoinResult) float64 { return float64(j.Msgs) }

func TestBootstrapRingConsistent(t *testing.T) {
	n, _ := newTestNet(t, DefaultOptions())
	if err := n.CheckRing(); err != nil {
		t.Fatalf("bootstrap ring inconsistent: %v", err)
	}
	if n.Metrics.Counter(msgBootstrap) == 0 {
		t.Fatal("bootstrap flood not charged")
	}
	if numHosts(n) != 0 {
		t.Fatalf("fresh network has %d hosts", numHosts(n))
	}
}

func TestJoinMaintainsRing(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	joinN(t, n, isp, 50)
	if err := n.CheckRing(); err != nil {
		t.Fatalf("ring broken after joins: %v", err)
	}
	if numHosts(n) != 50 {
		t.Fatalf("hosts = %d", numHosts(n))
	}
}

func TestJoinDuplicateRejected(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	id := ident.FromString("dup")
	if _, err := n.JoinHost(id, isp.Access[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := n.JoinHost(id, isp.Access[1]); !errors.Is(err, errDuplicateID) {
		t.Fatalf("want ErrDuplicateID, got %v", err)
	}
}

func TestJoinOverheadBounded(t *testing.T) {
	// Paper §6.2: join overhead ≈ 4 messages × network diameter.
	n, isp := newTestNet(t, DefaultOptions())
	diam := isp.Graph.DiameterHops(0, nil)
	s := joinSummary(joinResults(t, n, isp, 40), joinMsgs)
	if s.Mean > float64(6*diam) {
		t.Fatalf("mean join overhead %.1f exceeds 6x diameter (%d)", s.Mean, diam)
	}
	if s.Max > float64(12*diam) {
		t.Fatalf("max join overhead %.0f exceeds 12x diameter (%d)", s.Max, diam)
	}
	if s.Mean <= 0 {
		t.Fatal("join overhead must be positive")
	}
}

// TestJoinResultsSumToJoinCounter: a join's result is the only per-join
// record of its cost, so on a healthy ring the results' messages, stable
// and ephemeral joins alike, add up to exactly the MsgJoin counter's rise.
func TestJoinResultsSumToJoinCounter(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	before := n.Metrics.Counter(MsgJoin)
	joins := joinResults(t, n, isp, 300)
	for i := 0; i < 30; i++ {
		res, err := n.JoinEphemeral(ident.FromString(fmt.Sprintf("eph-%d", i)), isp.Access[(7*i)%len(isp.Access)])
		if err != nil {
			t.Fatal(err)
		}
		joins = append(joins, res)
	}
	sum := 0
	for _, j := range joins {
		sum += j.Msgs
	}
	if rise := n.Metrics.Counter(MsgJoin) - before; rise != int64(sum) || sum == 0 {
		t.Fatalf("%d joins' results sum to %d messages, the %s counter rose %d", len(joins), sum, MsgJoin, rise)
	}
}

func TestRouteDelivers(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	ids := joinN(t, n, isp, 30)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		from := isp.Access[rng.Intn(len(isp.Access))]
		dst := ids[rng.Intn(len(ids))]
		res, err := n.Route(from, dst)
		if err != nil {
			t.Fatalf("route to %s: %v", dst.Short(), err)
		}
		if !res.Delivered {
			t.Fatal("not delivered")
		}
		host, _ := n.HostingRouter(dst)
		if res.Final != host {
			t.Fatalf("delivered to %d, hosted at %d", res.Final, host)
		}
		if res.Stretch < 1 && res.Hops > 0 {
			t.Fatalf("stretch %v < 1", res.Stretch)
		}
	}
}

func TestRouteToSelfHostedID(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	id := ident.FromString("local")
	at := isp.Access[0]
	if _, err := n.JoinHost(id, at); err != nil {
		t.Fatal(err)
	}
	res, err := n.Route(at, id)
	if err != nil || res.Hops != 0 || res.Stretch != 1 {
		t.Fatalf("self route: res=%+v err=%v", res, err)
	}
}

func TestRouteUnknownID(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	joinN(t, n, isp, 5)
	_, err := n.Route(isp.Access[0], ident.FromString("ghost"))
	if !errors.Is(err, errUnknownID) {
		t.Fatalf("want ErrUnknownID, got %v", err)
	}
}

func TestEphemeralJoinAndRoute(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	joins := joinResults(t, n, isp, 20)
	eph := ident.FromString("laptop")
	res, err := n.JoinEphemeral(eph, isp.Access[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CheckRing(); err != nil {
		t.Fatalf("ephemeral join broke ring: %v", err)
	}
	// Ephemeral joins are cheaper: they only contact the predecessor.
	stable := joinSummary(joins, joinMsgs)
	if float64(res.Msgs) > stable.Max {
		t.Logf("ephemeral join %d msgs vs stable max %.0f", res.Msgs, stable.Max)
	}
	// Routing to the ephemeral ID works from anywhere.
	for _, from := range []RouterID{isp.Access[0], isp.Backbone[0], isp.Access[7]} {
		r, err := n.Route(from, eph)
		if err != nil || !r.Delivered {
			t.Fatalf("route to ephemeral from %d: %+v %v", from, r, err)
		}
	}
}

func TestEphemeralNotASuccessor(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	joinN(t, n, isp, 10)
	eph := ident.FromString("laptop2")
	if _, err := n.JoinEphemeral(eph, isp.Access[0]); err != nil {
		t.Fatal(err)
	}
	for _, r := range n.Routers {
		for _, vn := range r.VNs.All() {
			for _, s := range vn.Succs {
				if s.ID == eph {
					t.Fatal("ephemeral ID must not appear in successor lists")
				}
			}
			if vn.Pred.ID == eph {
				t.Fatal("ephemeral ID must not be a predecessor")
			}
		}
	}
}

func TestCachingReducesStretch(t *testing.T) {
	// Fig 6a shape: bigger pointer caches → lower stretch.
	run := func(capacity int) float64 {
		isp := testISP()
		m := sim.NewMetrics()
		opts := DefaultOptions()
		opts.CacheCapacity = capacity
		n := New(isp.Graph, m, opts)
		rng := rand.New(rand.NewSource(9))
		var ids []ident.ID
		for i := 0; i < 150; i++ {
			id := ident.FromString(fmt.Sprintf("h%d", i))
			if _, err := n.JoinHost(id, isp.Access[rng.Intn(len(isp.Access))]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		var total float64
		const probes = 300
		for i := 0; i < probes; i++ {
			from := isp.Access[rng.Intn(len(isp.Access))]
			res, err := n.Route(from, ids[rng.Intn(len(ids))])
			if err != nil {
				t.Fatal(err)
			}
			total += res.Stretch
		}
		return total / probes
	}
	none := run(0)
	big := run(100000)
	if big >= none {
		t.Fatalf("caching should cut stretch: none=%.2f big=%.2f", none, big)
	}
	if big < 1 {
		t.Fatalf("stretch below 1 impossible: %v", big)
	}
}

func TestControlCachingDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.CacheControl = false
	n, isp := newTestNet(t, opts)
	joinN(t, n, isp, 20)
	for _, r := range n.Routers {
		if r.Cache.Len() != 0 {
			t.Fatal("caches must stay empty with CacheControl off")
		}
	}
}

func TestSnoopDataFillsCaches(t *testing.T) {
	opts := DefaultOptions()
	opts.CacheControl = false
	opts.SnoopData = true
	n, isp := newTestNet(t, opts)
	ids := joinN(t, n, isp, 20)
	// Route until some cache is non-empty.
	rng := rand.New(rand.NewSource(4))
	filled := false
	for i := 0; i < 50 && !filled; i++ {
		if _, err := n.Route(isp.Access[rng.Intn(len(isp.Access))], ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
		for _, r := range n.Routers {
			if r.Cache.Len() > 0 {
				filled = true
				break
			}
		}
	}
	if !filled {
		t.Fatal("data snooping should fill caches")
	}
}

func TestMemoryAccounting(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	joinN(t, n, isp, 30)
	total := 0
	for _, r := range n.Routers {
		total += r.MemoryEntries()
		if r.VNs.Len() < 1 {
			t.Fatal("every router hosts at least its default VN")
		}
	}
	if total == 0 {
		t.Fatal("memory accounting empty")
	}
}

func TestTraversalsCounted(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	ids := joinN(t, n, isp, 20)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		if _, err := n.Route(isp.Access[rng.Intn(len(isp.Access))], ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	for _, c := range n.Traversals() {
		sum += c
	}
	if sum == 0 {
		t.Fatal("traversals not counted")
	}
}

func TestJoinAtDownRouter(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	n.LS.FailNode(isp.Access[0])
	if _, err := n.JoinHost(ident.FromString("x"), isp.Access[0]); !errors.Is(err, errRouterDown) {
		t.Fatalf("want ErrRouterDown, got %v", err)
	}
}

func TestJoinLatencyPositive(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	lat := joinSummary(joinResults(t, n, isp, 20), func(j JoinResult) float64 { return j.Latency })
	if lat.Mean <= 0 {
		t.Fatal("join latency must be positive for non-local joins")
	}
	// Latency should be on the order of a few network crossings, not
	// hundreds of ms on this small topology.
	if lat.Max > 500 {
		t.Fatalf("latency implausible: %v", lat.Max)
	}
}

func TestLookupTerminatesAtPredecessor(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	ids := joinN(t, n, isp, 20)
	// Lookup of an existing ID delivers at its hosting router.
	out, err := n.Lookup(isp.Backbone[0], ids[3])
	if err != nil || !out.Delivered {
		t.Fatalf("lookup existing: %+v %v", out, err)
	}
	// Lookup of an absent ID terminates stuck at its ring predecessor.
	absent := ident.FromString("absent-key")
	out, err = n.Lookup(isp.Backbone[0], absent)
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered || out.StuckVN == nil {
		t.Fatalf("lookup absent must stick at predecessor: %+v", out)
	}
	if !ident.BetweenOpen(absent, out.StuckVN.ID, mustSucc(t, out.StuckVN).ID) && mustSucc(t, out.StuckVN).ID != absent {
		t.Fatalf("stuck VN %s is not the predecessor of %s", out.StuckVN.ID.Short(), absent.Short())
	}
}

// The walk's exclusion list is a slice, so it must still behave as a
// set, and what it excludes must stay excluded: an identifier in avoid
// is never selected, however attractive a cached pointer to it looks.
// That is the join-lookup guard — a join plants pointers to the joining
// identifier along its own path before the identifier is resident.
func TestStaleSetAndAvoid(t *testing.T) {
	var s staleSet
	a, b := ident.FromString("stale-a"), ident.FromString("stale-b")
	s = s.add(a).add(b).add(a)
	if len(s) != 2 || !s.has(a) || !s.has(b) || s.has(ident.FromString("stale-c")) {
		t.Fatalf("an identifier added twice must be held once: %v", s)
	}

	planted, isp := newTestNet(t, DefaultOptions())
	joinN(t, planted, isp, 40)
	joining := ident.FromString("joining-host")
	lure := Pointer{ID: joining, Router: isp.Access[3]}
	for _, r := range planted.Routers {
		r.Cache.Insert(lure)
	}
	// Selection: the lure is a legal, perfect candidate everywhere (it is
	// the destination), and is refused exactly when listed.
	for _, r := range planted.Routers {
		if best, _, ok := planted.selectNextHop(r, r.ID, joining, r.VNs.Floor(joining), nil); !ok || best != lure {
			t.Fatalf("router %d: unguarded selection = %v ok=%v, want the planted pointer", r.Node, best, ok)
		}
		if best, _, ok := planted.selectNextHop(r, r.ID, joining, r.VNs.Floor(joining), staleSet{joining}); ok && best.ID == joining {
			t.Fatalf("router %d selected an avoided identifier", r.Node)
		}
	}
	// The walk: with the identifier avoided, a lookup from anywhere still
	// sticks at the true ring predecessor and never visits the lure's
	// router on the lure's account (it removes no cache entry there).
	ms := planted.members()
	pred := ms[predecessorIndex(ms, joining)].ID
	for _, from := range isp.Access {
		out, err := planted.greedy(from, joining, MsgJoin, nil, nil, nil, joining)
		if err != nil {
			t.Fatal(err)
		}
		if out.Delivered || out.StuckVN == nil || out.StuckVN.ID != pred {
			t.Fatalf("from %d: lookup stuck at %v, want predecessor %s", from, out.StuckVN, pred.Short())
		}
	}
	for _, r := range planted.Routers {
		if p, ok := r.Cache.Lookup(joining.Prev(), joining); !ok || p != lure {
			t.Fatalf("router %d: the avoided pointer was chased and dropped", r.Node)
		}
	}
	// The caller's slice is seeded from, never written to: lure a second
	// lookup to an unresident identifier so the walk records it as broken.
	other := ident.FromString("other-host")
	broken := Pointer{ID: other.Prev(), Router: isp.Access[5]}
	for _, r := range planted.Routers {
		r.Cache.Insert(broken)
	}
	avoid := make([]ident.ID, 1, 4)
	avoid[0] = joining
	if _, err := planted.greedy(isp.Access[0], other, MsgJoin, nil, nil, nil, avoid...); err != nil {
		t.Fatal(err)
	}
	if _, kept := planted.Routers[broken.Router].Cache.Lookup(broken.ID.Prev(), broken.ID); kept {
		t.Fatal("the broken pointer was never chased, so nothing was recorded")
	}
	if spare := avoid[:2][1]; spare != (ident.ID{}) {
		t.Fatalf("the walk wrote %s into its caller's avoid slice", spare.Short())
	}
}

func mustSucc(t *testing.T, vn *VirtualNode) Pointer {
	t.Helper()
	s, ok := vn.Succ()
	if !ok {
		t.Fatal("virtual node has no successor")
	}
	return s
}

func TestOptionsAccessors(t *testing.T) {
	opts := DefaultOptions()
	n, _ := newTestNet(t, opts)
	if n.opts.CacheCapacity != opts.CacheCapacity {
		t.Fatal("Options() must round-trip")
	}
	if n.Routers[0].Cache.cap != opts.CacheCapacity {
		t.Fatal("cache capacity must match options")
	}
}

func TestGreedyPathRecorded(t *testing.T) {
	n, isp := newTestNet(t, DefaultOptions())
	ids := joinN(t, n, isp, 20)
	out, err := n.RouteMatch(isp.Backbone[0], ids[0], nil)
	if err != nil || !out.Delivered {
		t.Fatalf("route: %+v %v", out, err)
	}
	checkPath(t, isp.Graph, isp.Backbone[0], out)
}

// checkPath holds a RouteMatch outcome's Path to the walk: one router
// per hop, from the origin to Final, each consecutive pair a link.
func checkPath(t *testing.T, g *topology.Graph, from RouterID, out Outcome) {
	t.Helper()
	if len(out.Path) != out.Msgs+1 {
		t.Fatalf("path records %d routers for %d hops", len(out.Path), out.Msgs)
	}
	if out.Path[0] != from || out.Path[len(out.Path)-1] != out.Final {
		t.Fatalf("path %v runs from %d to %d, want %d to %d", out.Path, out.Path[0], out.Path[len(out.Path)-1], from, out.Final)
	}
	for i := 1; i < len(out.Path); i++ {
		if !g.HasEdge(out.Path[i-1], out.Path[i]) {
			t.Fatalf("path hop %d-%d not a physical link", out.Path[i-1], out.Path[i])
		}
	}
}

// TestRouteMatchPathLegs records the two legs a walk takes over a whole
// shortest path rather than hop by hop: from the router parking an
// ephemeral host to the router hosting it, and back from a stale
// pointer's router to the packet's ring position.
func TestRouteMatchPathLegs(t *testing.T) {
	never := func(*Router) (*VirtualNode, bool) { return nil, false }
	t.Run("parked ephemeral", func(t *testing.T) {
		n, isp := newTestNet(t, DefaultOptions())
		joinN(t, n, isp, 20)
		legs := 0
		for i := 0; i < 10; i++ {
			id := ident.FromString(fmt.Sprintf("ephemeral-%d", i))
			at := isp.Access[(3*i+1)%len(isp.Access)]
			if _, err := n.JoinEphemeral(id, at); err != nil {
				t.Fatal(err)
			}
			for _, r := range n.Routers {
				if _, parked := r.parkedAt(id); !parked || r.Node == at {
					continue
				}
				out, err := n.RouteMatch(r.Node, id, never)
				if err != nil || !out.Delivered || out.Final != at {
					t.Fatalf("route %d -> %s: %+v %v", r.Node, id.Short(), out, err)
				}
				checkPath(t, isp.Graph, r.Node, out)
				legs++
			}
		}
		if legs == 0 {
			t.Fatal("no ephemeral parked away from its own router")
		}
	})
	t.Run("backtrack", func(t *testing.T) {
		// A cached pointer to an identifier no router hosts lures the
		// packet from its position's router; finding it absent and
		// nothing else between the position and dst, the walk backtracks
		// and ends stuck where it started.
		n, isp := newTestNet(t, DefaultOptions())
		joinN(t, n, isp, 20)
		from, lure := isp.Backbone[0], isp.Access[len(isp.Access)-1]
		pos := n.Routers[from].ID
		n.Routers[from].Cache.Insert(Pointer{ID: pos.Next(), Router: lure})
		out, err := n.RouteMatch(from, pos.Next().Next(), never)
		if err != nil || out.Delivered || out.Final != from || !slices.Contains(out.Path, lure) {
			t.Fatalf("route: %+v %v", out, err)
		}
		checkPath(t, isp.Graph, from, out)
	})
}

func TestAllPairsDeliveryAcrossSeeds(t *testing.T) {
	// Semi-exhaustive delivery check: on several independently generated
	// small networks, every (router, identifier) pair must deliver with
	// stretch >= 1 — the network-level corollary of the greedy-progress
	// property.
	for seed := int64(1); seed <= 5; seed++ {
		isp := topology.GenISP(topology.ISPConfig{
			Name: "prop", Routers: 24, PoPs: 4, BackbonePerPoP: 2, PoPDegree: 2,
			IntraPoPDelay: 0.5, InterPoPDelay: 3, Hosts: 50, ZipfS: 1.2, Seed: seed,
		})
		m := sim.NewMetrics()
		opts := DefaultOptions()
		opts.Seed = seed
		n := New(isp.Graph, m, opts)
		var ids []ident.ID
		for i := 0; i < 15; i++ {
			id := ident.FromString(fmt.Sprintf("prop-%d-%d", seed, i))
			if _, err := n.JoinHost(id, isp.Access[i%len(isp.Access)]); err != nil {
				t.Fatalf("seed %d join: %v", seed, err)
			}
			ids = append(ids, id)
		}
		if err := n.CheckRing(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for r := 0; r < isp.Graph.NumNodes(); r++ {
			for _, id := range ids {
				res, err := n.Route(RouterID(r), id)
				if err != nil || !res.Delivered {
					t.Fatalf("seed %d: route %d->%s: %+v %v", seed, r, id.Short(), res, err)
				}
				if res.Stretch < 1 {
					t.Fatalf("seed %d: stretch %v < 1", seed, res.Stretch)
				}
			}
		}
	}
}

// TestOneRouterRing: on a one-router graph the lone default virtual
// node holds no ring pointers, so the first host to join takes it as
// its successor as well as its predecessor. The ring must check clean
// after every join, stable and ephemeral alike, and route to each host.
func TestOneRouterRing(t *testing.T) {
	for _, group := range []int{1, 3} {
		g := topology.NewGraph(1)
		at := g.AddNode()
		opts := DefaultOptions()
		opts.SuccessorGroup = group
		n := New(g, sim.NewMetrics(), opts)
		if err := n.CheckRing(); err != nil {
			t.Fatalf("group %d: bootstrap: %v", group, err)
		}
		var ids []ident.ID
		for i := 0; i < 6; i++ {
			id := ident.FromString(fmt.Sprintf("lone-%d", i))
			join := n.JoinHost
			if i%3 == 2 {
				join = n.JoinEphemeral
			}
			if _, err := join(id, at); err != nil {
				t.Fatalf("group %d: join %d: %v", group, i, err)
			}
			if err := n.CheckRing(); err != nil {
				t.Fatalf("group %d: after join %d: %v", group, i, err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if res, err := n.Route(at, id); err != nil || !res.Delivered {
				t.Fatalf("group %d: route to %s: %+v %v", group, id.Short(), res, err)
			}
		}
	}
}

func TestEdgeWeightHelper(t *testing.T) {
	g := topology.NewGraph(2)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 2.5)
	if w, ok := g.EdgeWeight(a, b); !ok || w != 2.5 {
		t.Fatalf("EdgeWeight = %v %v", w, ok)
	}
	if _, ok := g.EdgeWeight(a, a); ok {
		t.Fatal("absent edge must not resolve")
	}
}

// liveHeap returns the bytes still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRouteHeapIndependentOfPasses: routing only reads the ring and
// re-stamps cache entries, so the memory a joined network holds must not
// depend on how many packets it has forwarded. (A log of cache touches
// made it grow 15.7 -> 47.5 MB over 40 passes of the benchmark's route
// list.)
func TestRouteHeapIndependentOfPasses(t *testing.T) {
	isp := topology.GenISP(topology.AS1221)
	n := New(isp.Graph, sim.NewMetrics(), DefaultOptions())
	rng := rand.New(rand.NewSource(5))
	ids := make([]ident.ID, 1000)
	for i := range ids {
		ids[i] = ident.Random(rng)
		if _, err := n.JoinHost(ids[i], isp.Access[rng.Intn(len(isp.Access))]); err != nil {
			t.Fatal(err)
		}
	}
	dsts := make([]ident.ID, 4*len(isp.Access))
	for i := range dsts {
		dsts[i] = ids[rng.Intn(len(ids))]
	}
	// One pass routes from every access router, so the first pass already
	// fills every shortest-path tree the later ones use.
	pass := func() {
		n.Metrics.Reset()
		for i, dst := range dsts {
			if res, err := n.Route(isp.Access[i%len(isp.Access)], dst); err != nil || !res.Delivered {
				t.Fatalf("route %d: %+v %v", i, res, err)
			}
		}
	}
	pass()
	one := liveHeap()
	for p := 1; p < 20; p++ {
		pass()
	}
	twenty := liveHeap()
	runtime.KeepAlive(n)
	t.Logf("live heap: %d B after 1 pass, %d B after 20", one, twenty)
	if diff := math.Abs(float64(twenty) - float64(one)); diff > 0.02*float64(one) {
		t.Fatalf("live heap %d B after 1 pass, %d B after 20: routing must not retain memory", one, twenty)
	}
}

// TestWalkAllocations pins the fidelity walk's allocations on the
// benchmark's ring (AS1221, 4,000 joins placed by HostsAt, seed 1), read
// exactly from runtime.MemStats as a mean over 1,000 calls (0.012 and
// 3.522): no leg builds a path of its own, and only RouteMatch records
// the routers a walk traverses, so Route and JoinHost build no path at
// all (1.40 and 6.27 when every walk recorded one, and 4 and 19 per
// route and join, read by the truncating testing.AllocsPerRun, when each
// leg built and reversed a path and the recorded path grew from one
// router). The join bound sits under 3.542, the reading when a cache's
// first run never leaves its firstBlock and grows by appends.
func TestWalkAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation moves values to the heap")
	}
	isp := topology.GenISP(topology.AS1221)
	n := New(isp.Graph, sim.NewMetrics(), DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	ids := joinBenchRing(t, n, isp, rng, 4000)
	const runs = 1000
	mallocs := func(fn func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fn()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs
	}
	route := mallocs(func() {
		if _, err := n.Route(isp.Access[rng.Intn(len(isp.Access))], ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	})
	joins, at := benchHosts(isp, rng, runs)
	i := 0
	join := mallocs(func() {
		if _, err := n.JoinHost(joins[i], at[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.3f mallocs per Route, %.3f per JoinHost", route, join)
	if route > 0.02 {
		t.Errorf("Route: %.2f mallocs, want at most 0.02", route)
	}
	if join > 3.53 {
		t.Errorf("JoinHost: %.3f mallocs, want at most 3.53", join)
	}
}

// TestResidentSearchesPerStep pins the resident-table searches a route
// makes per router step on the benchmark ring: one floor of dst serves
// both delivery and the selection window, so every step searches once.
// Searching for delivery and again for the window read 1.875 (75,072
// searches over 40,036 steps). Every route delivers, so the steps are the
// selections plus one delivering step per route.
func TestResidentSearchesPerStep(t *testing.T) {
	isp := topology.GenISP(topology.AS1221)
	n := New(isp.Graph, sim.NewMetrics(), DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	ids := joinBenchRing(t, n, isp, rng, 4000)
	searches, selections := 0, 0
	testHookResidentSearch = func() { searches++ }
	testHookSelect = func(*Router, ident.ID, ident.ID, staleSet, Pointer, *VirtualNode, bool) { selections++ }
	t.Cleanup(func() { testHookResidentSearch, testHookSelect = nil, nil })
	const routes = 5000
	for range routes {
		if _, err := n.Route(isp.Access[rng.Intn(len(isp.Access))], ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	steps := selections + routes
	t.Logf("%d resident searches over %d router steps, %.4f per step", searches, steps, float64(searches)/float64(steps))
	if searches != steps {
		t.Errorf("%d resident searches over %d router steps; want one per step", searches, steps)
	}
}
