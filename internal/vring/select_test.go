package vring

import (
	"math/rand"
	"sort"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// refSelectNextHop is selectNextHop as it stood before it read only the
// residents of window: every resident's ID, successors and predecessor,
// in identifier order, then the cache. It needs no bound, so it is the
// oracle the windowed scan is held to.
func refSelectNextHop(r *Router, pos, dst ident.ID, stale staleSet) (Pointer, *VirtualNode, bool) {
	var best Pointer
	var bestVN *VirtualNode
	sel := ident.NewScan(pos, dst)
	for _, vn := range r.VNs.All() {
		if vn.Ephemeral {
			continue
		}
		if sel.Beats(vn.ID) && !stale.has(vn.ID) && sel.Offer(vn.ID) {
			best, bestVN = Pointer{ID: vn.ID, Router: r.Node}, vn
		}
		for i := range vn.Succs {
			if s := &vn.Succs[i]; sel.Beats(s.ID) && !stale.has(s.ID) && sel.Offer(s.ID) {
				best, bestVN = *s, vn
			}
		}
		if vn.Pred != (Pointer{}) && sel.Beats(vn.Pred.ID) && !stale.has(vn.Pred.ID) && sel.Offer(vn.Pred.ID) {
			best, bestVN = vn.Pred, vn
		}
	}
	if p, ok := r.Cache.Lookup(pos, dst); ok && sel.Beats(p.ID) && !stale.has(p.ID) && sel.Offer(p.ID) {
		best, bestVN = p, nil
	}
	_, found := sel.Best()
	return best, bestVN, found
}

// selectCalls counts the decisions the oracle checked.
type selectCalls struct {
	all int
	// staleResident counts decisions where a stale identifier is a legal
	// resident of the deciding router, so the window had to walk past it.
	staleResident int
}

// checkSelections holds every selectNextHop decision the greedy walk
// makes for the rest of t to refSelectNextHop's: the same pointer from
// the same virtual node. The second cache lookup moves the entry's
// recency stamp, which keeps every entry's order and so changes no later
// eviction.
func checkSelections(t *testing.T) *selectCalls {
	t.Helper()
	var n selectCalls
	testHookSelect = func(r *Router, pos, dst ident.ID, stale staleSet, got Pointer, gotVN *VirtualNode, ok bool) {
		n.all++
		for _, id := range stale {
			if r.Resident(id) != nil && ident.Progress(pos, dst, id) {
				n.staleResident++
				break
			}
		}
		want, wantVN, wantOK := refSelectNextHop(r, pos, dst, stale)
		if got != want || gotVN != wantVN || ok != wantOK {
			t.Fatalf("router %d, pos %s, dst %s, %d stale: selectNextHop = %v from %p (%v), exhaustive scan %v from %p (%v)",
				r.Node, pos.Short(), dst.Short(), len(stale), got, gotVN, ok, want, wantVN, wantOK)
		}
	}
	t.Cleanup(func() { testHookSelect = nil })
	return &n
}

// joinBenchRing joins count hosts with the placement of the root
// package's benchRing: random identifiers on AS 1221's access routers,
// weighted by HostsAt. Two calls on one rng place the hosts one call of
// their total would.
func joinBenchRing(t *testing.T, n *Network, isp *topology.ISP, rng *rand.Rand, count int) []ident.ID {
	t.Helper()
	ids, at := benchHosts(isp, rng, count)
	for i, id := range ids {
		if _, err := n.JoinHost(id, at[i]); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// benchHosts draws count random identifiers and their gateways, placed
// by HostsAt.
func benchHosts(isp *topology.ISP, rng *rand.Rand, count int) ([]ident.ID, []RouterID) {
	var cum []int
	total := 0
	for _, h := range isp.HostsAt {
		total += max(h, 1)
		cum = append(cum, total)
	}
	ids, at := make([]ident.ID, count), make([]RouterID, count)
	for i := range ids {
		ids[i] = ident.Random(rng)
		at[i] = isp.Access[sort.SearchInts(cum, rng.Intn(total)+1)]
	}
	return ids, at
}

// TestSelectNextHopMatchesExhaustiveScan compares selectNextHop with the
// exhaustive scan at every router of every greedy walk: joins and routes
// on the repository benchmark's ring, router failures with failover, and
// routes that must walk past a resident they avoid. TestChurnSoakMultiSeed
// holds every soak seed (leaves, crashes, moves, ephemerals, partitions,
// link flaps) to it too.
func TestSelectNextHopMatchesExhaustiveScan(t *testing.T) {
	t.Run("benchmark ring", func(t *testing.T) {
		calls := checkSelections(t)
		isp := topology.GenISP(topology.AS1221)
		n := New(isp.Graph, sim.NewMetrics(), DefaultOptions())
		rng := rand.New(rand.NewSource(1))
		ids := joinBenchRing(t, n, isp, rng, 4000)
		joins := calls.all
		for i := 0; i < 5000; i++ {
			if _, err := n.Route(isp.Access[rng.Intn(len(isp.Access))], ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%d join decisions, %d route decisions", joins, calls.all-joins)
	})
	t.Run("router failure", func(t *testing.T) {
		calls := checkSelections(t)
		n, isp := newTestNet(t, DefaultOptions())
		ids := joinN(t, n, isp, 200)
		for _, victim := range isp.Access[:6] {
			if err := n.FailRouter(victim); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.CheckRing(); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if _, err := n.Route(isp.Backbone[i%len(isp.Backbone)], id); err != nil {
				t.Fatalf("route to %s: %v", id.Short(), err)
			}
		}
		t.Logf("%d decisions", calls.all)
	})
	t.Run("predecessor repair", func(t *testing.T) {
		calls := checkSelections(t)
		n, isp := newTestNet(t, DefaultOptions())
		// On the bootstrap ring each router's bounds are its default
		// node's own spans. Host x just past router q's default node at
		// router r, whose predecessor span is the shortest, then fail q:
		// scrubID hands x q's longer predecessor span, and a lookup from r
		// just past q's predecessor needs x's new predecessor.
		ms := n.members()
		at := func(node RouterID) int { i, _ := findMember(ms, n.Routers[node].ID); return i }
		pred := func(i int) ident.ID { return ms[(i-1+len(ms))%len(ms)].ID }
		longer := func(i, j int) bool { return !ident.Within(pred(i), ms[i].ID, pred(j).Distance(ms[j].ID)) }
		r := isp.Access[0]
		for _, a := range isp.Access {
			if longer(at(r), at(a)) {
				r = a
			}
		}
		q := RouterID(-1)
		for _, a := range isp.Access {
			// r must be neither q's predecessor nor in its successor group,
			// or r's own spans already cover x's.
			if ahead := (at(r) - at(a) + len(ms)) % len(ms); longer(at(a), at(r)) && ahead > DefaultOptions().SuccessorGroup && ahead != len(ms)-1 {
				q = a
				break
			}
		}
		if q < 0 {
			t.Fatal("no router with a longer predecessor span")
		}
		dst := pred(at(q)).Next()
		if _, err := n.JoinHost(n.Routers[q].ID.Next(), r); err != nil {
			t.Fatal(err)
		}
		if err := n.FailRouter(q); err != nil {
			t.Fatal(err)
		}
		if _, err := n.RouteMatch(r, dst, nil); err != nil {
			t.Fatal(err)
		}
		t.Logf("%d decisions", calls.all)
	})
	t.Run("avoided resident", func(t *testing.T) {
		calls := checkSelections(t)
		n, isp := newTestNet(t, DefaultOptions())
		ids := joinN(t, n, isp, 200)
		// Heading just past a host from its own router, the host is the
		// nearest resident to the destination; avoiding it makes it stale.
		for _, id := range ids {
			at, _ := n.HostingRouter(id)
			if _, err := n.RouteMatch(at, id.Next(), nil, id); err != nil {
				t.Fatal(err)
			}
		}
		if calls.staleResident == 0 {
			t.Fatal("no decision had to walk past a stale resident")
		}
		t.Logf("%d decisions, %d past a stale resident", calls.all, calls.staleResident)
	})
}
