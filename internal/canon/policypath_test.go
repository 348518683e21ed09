package canon

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// refNeighbors lists a's neighbours of one relation straight from the
// relation map, ascending — what the ASGraph accessors computed before
// they had an index.
func refNeighbors(g *topology.ASGraph, a topology.ASN, rel topology.Relation) []topology.ASN {
	var out []topology.ASN
	for b := 0; b < g.NumASes(); b++ {
		if topology.ASN(b) != a && g.Relation(a, topology.ASN(b)) == rel {
			out = append(out, topology.ASN(b))
		}
	}
	return out
}

func refLinkUp(in *Internet, a, b topology.ASN) bool {
	return !in.failedAS[a] && !in.failedAS[b] && !in.failedLink[linkKey(a, b)]
}

func refUp(in *Internet, a topology.ASN, rel topology.Relation) []topology.ASN {
	var out []topology.ASN
	for _, p := range refNeighbors(in.G, a, rel) {
		if refLinkUp(in, a, p) {
			out = append(out, p)
		}
	}
	return out
}

// refPathWithin is pathWithin as it stood before policyPath: a BFS with
// freshly allocated state that reads every relation from the map. The
// differential tests hold the kernel to its paths, ties included.
func refPathWithin(in *Internet, root Root, from, to topology.ASN) []topology.ASN {
	if from == to {
		return []topology.ASN{from}
	}
	if !in.inSubtree(root, from) || !in.inSubtree(root, to) {
		return nil
	}
	if in.failedAS[from] || in.failedAS[to] {
		return nil
	}
	n := in.G.NumASes()
	const phases = 2 // 0 ascending, 1 descending
	visited := make([]bool, n*phases)
	parent := make([]int32, n*phases)
	for i := range parent {
		parent[i] = -1
	}
	idx := func(a topology.ASN, ph int) int { return int(a)*phases + ph }
	start := idx(from, 0)
	visited[start] = true
	queue := []int{start}
	goal := -1
	for len(queue) > 0 && goal == -1 {
		cur := queue[0]
		queue = queue[1:]
		a := topology.ASN(cur / phases)
		ph := cur % phases
		push := func(b topology.ASN, nph int) {
			if in.failedAS[b] || !in.inSubtree(root, b) {
				return
			}
			i := idx(b, nph)
			if visited[i] {
				return
			}
			visited[i] = true
			parent[i] = int32(cur)
			if b == to {
				goal = i
				return
			}
			queue = append(queue, i)
		}
		if ph == 0 {
			provs := refUp(in, a, topology.RelProvider)
			if len(provs) == 0 {
				provs = refUp(in, a, topology.RelBackup)
			}
			for _, p := range provs {
				push(p, 0)
				if goal != -1 {
					break
				}
			}
			if goal == -1 {
				for _, q := range refUp(in, a, topology.RelPeer) {
					allowed := false
					switch root.Kind {
					case rootPeer:
						allowed = (a == root.A && q == root.B) || (a == root.B && q == root.A)
					case rootTop:
						allowed = in.G.Tier(a) == 1 && in.G.Tier(q) == 1
					}
					if allowed {
						push(q, 1)
						if goal != -1 {
							break
						}
					}
				}
			}
		}
		if goal == -1 {
			for _, c := range refUp(in, a, topology.RelCustomer) {
				if in.G.Relation(c, a) == topology.RelBackup && len(refUp(in, c, topology.RelProvider)) > 0 {
					continue
				}
				push(c, 1)
				if goal != -1 {
					break
				}
			}
		}
	}
	if goal == -1 {
		return nil
	}
	var rev []topology.ASN
	for i := goal; i != -1; i = int(parent[i]) {
		rev = append(rev, topology.ASN(i/phases))
	}
	out := make([]topology.ASN, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		if len(out) == 0 || out[len(out)-1] != rev[i] {
			out = append(out, rev[i])
		}
	}
	return out
}

// allRoots lists every AS root, the virtual AS of every peering link and
// Top.
func allRoots(g *topology.ASGraph) []Root {
	roots := []Root{top}
	for a := 0; a < g.NumASes(); a++ {
		roots = append(roots, asRoot(topology.ASN(a)))
		for _, q := range g.Peers(topology.ASN(a)) {
			if topology.ASN(a) < q {
				roots = append(roots, peerRoot(topology.ASN(a), q))
			}
		}
	}
	return roots
}

// comparePaths checks pathWithin and hopsWithin against the reference
// for every (root, from, to), and pathsWithin for every (root, from, to,
// the AS after to); it reports how many pairs had a path.
func comparePaths(t *testing.T, in *Internet, stage string) int {
	t.Helper()
	n := in.G.NumASes()
	connected := 0
	same := func(got, want []topology.ASN) bool {
		return slices.Equal(got, want) && (got == nil) == (want == nil)
	}
	for _, root := range allRoots(in.G) {
		for from := 0; from < n; from++ {
			if !in.inSubtree(root, topology.ASN(from)) {
				continue
			}
			for to := 0; to < n; to++ {
				f, d, e := topology.ASN(from), topology.ASN(to), topology.ASN((to+1)%n)
				want := refPathWithin(in, root, f, d)
				if got := in.pathWithin(root, f, d); !same(got, want) {
					t.Fatalf("%s: pathWithin(%v, %d, %d) = %v, reference %v", stage, root, f, d, got, want)
				}
				if got := in.hopsWithin(root, f, d); got != len(want)-1 {
					t.Fatalf("%s: hopsWithin(%v, %d, %d) = %d, reference path %v", stage, root, f, d, got, want)
				}
				wantAlso := refPathWithin(in, root, f, e)
				if got, gotAlso := in.pathsWithin(root, f, d, e); !same(got, want) || !same(gotAlso, wantAlso) {
					t.Fatalf("%s: pathsWithin(%v, %d, %d, %d) = %v, %v, reference %v, %v", stage, root, f, d, e, got, gotAlso, want, wantAlso)
				}
				if want != nil {
					connected++
				}
			}
		}
	}
	return connected
}

// TestPolicyPathMatchesReference drives one Internet through link
// failures, a joinVia mask-and-restore, restores and AS failures, and at
// every stage compares the full path of every (root, from, to).
func TestPolicyPathMatchesReference(t *testing.T) {
	g := topology.GenAS(topology.ASGenConfig{
		Tier1: 3, Tier2: 10, Stubs: 32,
		Hosts: 1000, ZipfS: 1.1,
		PeerProb: 0.25, BackupProb: 0.4, Seed: 30,
	})
	in := New(g, sim.NewMetrics(), DefaultOptions())
	joinMany(t, in, g, 120, Multihomed, 31)
	rng := rand.New(rand.NewSource(32))
	healthy := comparePaths(t, in, "healthy")
	if healthy == 0 {
		t.Fatal("no connected pair")
	}

	type link [2]topology.ASN
	var links []link
	for a := 0; a < g.NumASes(); a++ {
		for _, b := range g.Neighbors(topology.ASN(a)) {
			if topology.ASN(a) < b {
				links = append(links, link{topology.ASN(a), b})
			}
		}
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	failed := links[:len(links)/5]
	for _, l := range failed {
		in.FailASLink(l[0], l[1])
	}
	if got := comparePaths(t, in, "links failed"); got >= healthy {
		t.Fatalf("failing a fifth of the links left %d connected pairs of %d", got, healthy)
	}

	// joinVia fails and restores the other access links of a multihomed
	// stub around a Join.
	for _, s := range g.Stubs() {
		if provs := in.activeProviders(nil, s); len(provs) > 1 {
			if _, err := in.JoinGroupTE(ident.GroupFromString("te"), []uint32{1, 2, 3}, s); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	comparePaths(t, in, "after joinVia")

	for _, l := range failed {
		in.RestoreASLink(l[0], l[1])
	}
	if len(in.failedLink) != 0 {
		t.Fatalf("%d links still failed after restore", len(in.failedLink))
	}
	if got := comparePaths(t, in, "restored"); got != healthy {
		t.Fatalf("restored graph has %d connected pairs, healthy had %d", got, healthy)
	}

	stubs := g.Stubs()
	for i := 0; i < 6; i++ {
		in.FailAS(stubs[rng.Intn(len(stubs))])
	}
	in.FailAS(topology.ASN(4)) // a transit AS: its customers fall back on other providers
	comparePaths(t, in, "ASes failed")
	if err := in.CheckRings(); err != nil {
		t.Fatal(err)
	}
}

// TestPolicySearchWork pins the candidates the policy search hands push
// per search on routeList's Internet, over its 3,000 joins and over its
// 1,500 routes: 9.8 and 6.8. Before the search asked each customer its
// bit in the targets' cone rows ahead of every other test, they were 45.3
// and 25.0.
func TestPolicySearchWork(t *testing.T) {
	var w searchWork
	testSearchWork = &w
	t.Cleanup(func() { testSearchWork = nil })
	in, list := routeList(t)
	joins := w
	w = searchWork{}
	for _, p := range list {
		if _, err := in.Route(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		w     searchWork
		bound float64
	}{
		{"join", joins, 10},
		{"route", w, 7},
	} {
		per := float64(c.w.candidates) / float64(c.w.searches)
		t.Logf("%s: %d candidates over %d searches, %.1f per search", c.name, c.w.candidates, c.w.searches, per)
		if per > c.bound {
			t.Errorf("%s searches hand push %.1f candidates each, want at most %v", c.name, per, c.bound)
		}
	}
}

// policyOps draws a FuzzPolicyPathsMatchReference operation stream.
func policyOps(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// FuzzPolicyPathsMatchReference holds the two-target search to two
// single-target reference searches on a generated graph (the shape of
// TestPolicyPathMatchesReference's) under a fuzzed series of link
// failures, restores and AS failures. Each op byte's low three bits pick
// the step: 0-1 fail the link the next byte indexes, 2 restore it, 3 fail
// an AS, and otherwise the next three bytes pick a root, a source inside
// it and an offset k, and every target d is searched with also d+k; ops
// past the first 512 bytes are ignored, to keep each case short. Each
// graph also checks the cones held by target against the customer cones.
func FuzzPolicyPathsMatchReference(f *testing.F) {
	f.Add(int64(30), policyOps(1, 64))
	f.Add(int64(30), policyOps(2, 400))
	f.Add(int64(7), policyOps(3, 200))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		g := topology.GenAS(topology.ASGenConfig{
			Tier1: 3, Tier2: 10, Stubs: 32,
			Hosts: 1000, ZipfS: 1.1,
			PeerProb: 0.25, BackupProb: 0.4, Seed: seed,
		})
		in := New(g, sim.NewMetrics(), DefaultOptions())
		n := g.NumASes()
		down := newCones(g, g.Customers)
		for a := range n {
			for d := range n {
				if in.cone.has(topology.ASN(d), topology.ASN(a)) != down.has(topology.ASN(a), topology.ASN(d)) {
					t.Fatalf("cone by target of %d holds %d: %v, customer cone says %v", d, a,
						in.cone.has(topology.ASN(d), topology.ASN(a)), down.has(topology.ASN(a), topology.ASN(d)))
				}
			}
		}
		var links [][2]topology.ASN
		for a := range n {
			for _, b := range g.Neighbors(topology.ASN(a)) {
				if topology.ASN(a) < b {
					links = append(links, [2]topology.ASN{topology.ASN(a), b})
				}
			}
		}
		roots := allRoots(g)
		ops = ops[:min(len(ops), 512)]
		for len(ops) >= 4 {
			op, x := ops[0]&7, int(ops[1])
			switch {
			case op < 2:
				l := links[x%len(links)]
				in.FailASLink(l[0], l[1])
				ops = ops[2:]
			case op == 2:
				l := links[x%len(links)]
				in.RestoreASLink(l[0], l[1])
				ops = ops[2:]
			case op == 3:
				in.FailAS(topology.ASN(x % n))
				ops = ops[2:]
			default:
				root := roots[x%len(roots)]
				var inside []topology.ASN
				for a := range n {
					if in.inSubtree(root, topology.ASN(a)) {
						inside = append(inside, topology.ASN(a))
					}
				}
				from, k := inside[int(ops[2])%len(inside)], int(ops[3])%n
				for d := range n {
					to, also := topology.ASN(d), topology.ASN((d+k)%n)
					want, wantAlso := refPathWithin(in, root, from, to), refPathWithin(in, root, from, also)
					got, gotAlso := in.pathsWithin(root, from, to, also)
					if !slices.Equal(got, want) || (got == nil) != (want == nil) ||
						!slices.Equal(gotAlso, wantAlso) || (gotAlso == nil) != (wantAlso == nil) {
						t.Fatalf("pathsWithin(%v, %d, %d, %d) = %v, %v, reference %v, %v", root, from, to, also, got, gotAlso, want, wantAlso)
					}
				}
				ops = ops[4:]
			}
		}
	})
}

// TestPolicyPathAllocations: a hop count allocates nothing and a path at
// most its result, once the search state has grown to the graph.
func TestPolicyPathAllocations(t *testing.T) {
	in, g := genInternet(t, DefaultOptions())
	stubs := g.Stubs()
	from, to := stubs[0], stubs[len(stubs)-1]
	if in.hopsWithin(top, from, to) < 2 {
		t.Fatalf("stubs %d and %d should be some hops apart", from, to)
	}
	if n := testing.AllocsPerRun(100, func() { in.hopsWithin(top, from, to) }); n != 0 {
		t.Errorf("hopsWithin allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { in.pathWithin(top, from, to) }); n > 1 {
		t.Errorf("pathWithin allocates %v times per call, want at most the result", n)
	}
}

// backupStubInternet is a stub (3) with primary provider 1 and backup
// provider 2 under the tier-1 0, and a second stub (4) under 2:
//
//	  0
//	 / \
//	1   2
//	|  . \
//	3 .   4
func backupStubInternet(t *testing.T) (in *Internet, src, dst ident.ID) {
	t.Helper()
	g := topology.NewASGraph(5)
	g.SetRelation(1, 0, topology.RelProvider)
	g.SetRelation(2, 0, topology.RelProvider)
	g.SetRelation(3, 1, topology.RelProvider)
	g.SetRelation(3, 2, topology.RelBackup)
	g.SetRelation(4, 2, topology.RelProvider)
	g.SetTier(0, 1)
	g.SetTier(1, 2)
	g.SetTier(2, 2)
	g.SetTier(3, 3)
	g.SetTier(4, 3)
	in = New(g, sim.NewMetrics(), DefaultOptions())
	src, dst = ident.FromString("at-4"), ident.FromString("at-3")
	if _, err := in.Join(src, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Join(dst, 3, Multihomed); err != nil {
		t.Fatal(err)
	}
	return in, src, dst
}

// TestNegotiatedPathObeysBackupRule: a negotiated session may descend a
// backup customer link only while the customer's primary links are down
// (§4.2), exactly as a ring-level path may.
func TestNegotiatedPathObeysBackupRule(t *testing.T) {
	in, src, dst := backupStubInternet(t)
	n, err := in.Negotiate(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Allowed[2] {
		t.Fatal("the backup provider is the source's own provider and must be in the negotiated set")
	}
	path, err := in.RouteNegotiated(n)
	if err != nil {
		t.Fatal(err)
	}
	if want := []topology.ASN{4, 2, 0, 1, 3}; !slices.Equal(path, want) {
		t.Fatalf("primary link up: negotiated path %v, want %v", path, want)
	}
	in.FailASLink(3, 1)
	path, err = in.RouteNegotiated(n)
	if err != nil {
		t.Fatal(err)
	}
	if want := []topology.ASN{4, 2, 3}; !slices.Equal(path, want) {
		t.Fatalf("primary link failed: negotiated path %v, want %v", path, want)
	}
	in.RestoreASLink(3, 1)
	if path, _ = in.RouteNegotiated(n); len(path) != 5 {
		t.Fatalf("primary link restored: negotiated path %v should leave the backup link", path)
	}
}

// TestRouteAnycastPicksOneMember: with two members of a group at the
// delivering AS, the member reported is the smaller identifier every
// time, not whichever the map yields first.
func TestRouteAnycastPicksOneMember(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	src := ident.FromString("anycast-src")
	if _, err := in.Join(src, 4, Multihomed); err != nil {
		t.Fatal(err)
	}
	grp := ident.GroupFromString("anycast-pair")
	lo, hi := grp.Member(1), grp.Member(2)
	for _, id := range []ident.ID{hi, lo} {
		if _, err := in.Join(id, 5, Multihomed); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 64; i++ {
		res, member, err := in.RouteAnycast(src, grp, rng)
		if err != nil || !res.Delivered || res.FinalAS != 5 {
			t.Fatalf("anycast %d: %+v %v", i, res, err)
		}
		if member != lo {
			t.Fatalf("anycast %d delivered to %s, want the smaller member %s", i, member.Short(), lo.Short())
		}
	}
}

// BenchmarkPolicyPath measures one policy-path query on the default AS
// graph: across the whole Internet (Top) and inside one tier-2 subtree.
func BenchmarkPolicyPath(b *testing.B) {
	g := topology.GenAS(topology.DefaultASGen())
	in := New(g, sim.NewMetrics(), DefaultOptions())
	tier2 := topology.ASN(-1)
	for a := 0; a < g.NumASes(); a++ {
		if g.Tier(topology.ASN(a)) == 2 && (tier2 < 0 || len(g.Customers(topology.ASN(a))) > len(g.Customers(tier2))) {
			tier2 = topology.ASN(a)
		}
	}
	for _, bc := range []struct {
		root Root
		ases []topology.ASN
	}{
		{top, g.Stubs()},
		{asRoot(tier2), g.DownHierarchyPrimary(tier2)},
	} {
		b.Run(fmt.Sprint(bc.root), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				from, to := bc.ases[i%len(bc.ases)], bc.ases[(i*7+3)%len(bc.ases)]
				if from != to && in.hopsWithin(bc.root, from, to) < 0 {
					b.Fatalf("no path %d -> %d within %v", from, to, bc.root)
				}
			}
		})
	}
}
