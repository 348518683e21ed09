package topology

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// smallAS builds the 5-AS hierarchy of the paper's Figure 3:
//
//	    1
//	   / \
//	  2   3
//	 / \
//	4   5
func smallAS() *ASGraph {
	g := NewASGraph(6) // index 0 unused so AS numbers match the figure
	g.SetRelation(2, 1, RelProvider)
	g.SetRelation(3, 1, RelProvider)
	g.SetRelation(4, 2, RelProvider)
	g.SetRelation(5, 2, RelProvider)
	g.SetTier(1, 1)
	g.SetTier(2, 2)
	g.SetTier(3, 3)
	g.SetTier(4, 3)
	g.SetTier(5, 3)
	return g
}

func TestRelationInverse(t *testing.T) {
	g := smallAS()
	if g.Relation(4, 2) != RelProvider {
		t.Fatal("4 sees 2 as provider")
	}
	if g.Relation(2, 4) != RelCustomer {
		t.Fatal("2 sees 4 as customer")
	}
	g2 := NewASGraph(2)
	g2.SetRelation(0, 1, RelPeer)
	if g2.Relation(1, 0) != RelPeer {
		t.Fatal("peer is symmetric")
	}
	g3 := NewASGraph(2)
	g3.SetRelation(0, 1, RelBackup)
	if g3.Relation(1, 0) != RelCustomer {
		t.Fatal("backup provider sees a customer")
	}
}

func TestProvidersCustomersPeers(t *testing.T) {
	g := smallAS()
	if got := g.Providers(4); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Providers(4) = %v", got)
	}
	if got := g.Customers(2); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("Customers(2) = %v", got)
	}
	if got := g.Customers(1); len(got) != 2 {
		t.Fatalf("Customers(1) = %v", got)
	}
	if got := g.Peers(1); len(got) != 0 {
		t.Fatalf("Peers(1) = %v", got)
	}
	if got := g.Neighbors(2); len(got) != 3 {
		t.Fatalf("Neighbors(2) = %v", got)
	}
}

func TestBackupOrderedLast(t *testing.T) {
	g := NewASGraph(4)
	g.SetRelation(0, 1, RelBackup)
	g.SetRelation(0, 2, RelProvider)
	g.SetRelation(0, 3, RelProvider)
	provs := g.Providers(0)
	if len(provs) != 3 || provs[2] != 1 {
		t.Fatalf("backup should sort last: %v", provs)
	}
	if got := g.PrimaryProviders(0); len(got) != 2 {
		t.Fatalf("primary providers = %v", got)
	}
}

func TestUpHierarchy(t *testing.T) {
	g := smallAS()
	up := g.UpHierarchy(4, false)
	for _, want := range []ASN{4, 2, 1} {
		if _, ok := up[want]; !ok {
			t.Fatalf("up-hierarchy of 4 missing %d: %v", want, up)
		}
	}
	if _, ok := up[3]; ok {
		t.Fatal("3 is not above 4")
	}
	if _, ok := up[5]; ok {
		t.Fatal("5 is not above 4")
	}
	if !g.InUpHierarchy(4, 1, false) || g.InUpHierarchy(4, 3, false) {
		t.Fatal("InUpHierarchy wrong")
	}
}

func TestUpHierarchyLevels(t *testing.T) {
	g := smallAS()
	levels := g.UpHierarchyLevels(4, false)
	if len(levels) != 3 {
		t.Fatalf("levels = %v", levels)
	}
	if levels[0][0] != 4 || levels[1][0] != 2 || levels[2][0] != 1 {
		t.Fatalf("levels = %v", levels)
	}
	// Root AS has a single level.
	if lv := g.UpHierarchyLevels(1, false); len(lv) != 1 {
		t.Fatalf("root levels = %v", lv)
	}
}

func TestUpHierarchyBackupInclusion(t *testing.T) {
	g := NewASGraph(3)
	g.SetRelation(0, 1, RelProvider)
	g.SetRelation(0, 2, RelBackup)
	without := g.UpHierarchy(0, false)
	if _, ok := without[2]; ok {
		t.Fatal("backup provider excluded by default")
	}
	with := g.UpHierarchy(0, true)
	if _, ok := with[2]; !ok {
		t.Fatal("backup provider included on request")
	}
}

func TestDownHierarchy(t *testing.T) {
	g := smallAS()
	down := g.downHierarchy(2, g.Customers)
	if len(down) != 3 { // 2, 4, 5
		t.Fatalf("down = %v", down)
	}
	whole := g.downHierarchy(1, g.Customers)
	if len(whole) != 5 {
		t.Fatalf("down(1) = %v", whole)
	}
	leaf := g.downHierarchy(4, g.Customers)
	if len(leaf) != 1 || leaf[0] != 4 {
		t.Fatalf("down(leaf) = %v", leaf)
	}
}

func TestGenASShape(t *testing.T) {
	cfg := DefaultASGen()
	g := GenAS(cfg)
	if g.NumASes() != cfg.Tier1+cfg.Tier2+cfg.Stubs {
		t.Fatalf("AS count = %d", g.NumASes())
	}
	// Tier-1 clique: all peers of each other.
	for i := 0; i < cfg.Tier1; i++ {
		if got := len(g.Peers(ASN(i))); got < cfg.Tier1-1 {
			t.Fatalf("tier1 %d peers = %d", i, got)
		}
	}
	// Every non-tier-1 AS has at least one provider; every stub's
	// up-hierarchy reaches tier 1 (no orphans).
	totalHosts := 0
	for a := 0; a < g.NumASes(); a++ {
		asn := ASN(a)
		totalHosts += g.Hosts(asn)
		if g.Tier(asn) == 1 {
			if g.Hosts(asn) != 0 {
				t.Fatalf("tier-1 %d should host nothing", a)
			}
			continue
		}
		if len(g.Providers(asn)) == 0 {
			t.Fatalf("AS %d (tier %d) has no provider", a, g.Tier(asn))
		}
		up := g.UpHierarchy(asn, true)
		reachedCore := false
		for m := range up {
			if g.Tier(m) == 1 {
				reachedCore = true
				break
			}
		}
		if !reachedCore {
			t.Fatalf("AS %d cannot reach tier 1", a)
		}
	}
	if totalHosts != cfg.Hosts {
		t.Fatalf("hosts = %d want %d", totalHosts, cfg.Hosts)
	}
	if len(g.Stubs()) != cfg.Stubs {
		t.Fatalf("stubs = %d", len(g.Stubs()))
	}
}

func TestGenASDeterministic(t *testing.T) {
	a, b := GenAS(DefaultASGen()), GenAS(DefaultASGen())
	for i := 0; i < a.NumASes(); i++ {
		na, nb := a.Neighbors(ASN(i)), b.Neighbors(ASN(i))
		if len(na) != len(nb) {
			t.Fatal("same seed must generate identical AS graph")
		}
		if a.Hosts(ASN(i)) != b.Hosts(ASN(i)) {
			t.Fatal("host counts must match")
		}
	}
}

func TestUpHierarchySizeIsSmall(t *testing.T) {
	// Paper §5.1: "up-hierarchies are typically fairly small" (~75-100
	// ASes at Internet scale). At our reduced scale they should be well
	// under the total AS count.
	g := GenAS(DefaultASGen())
	for _, s := range g.Stubs()[:50] {
		up := g.UpHierarchy(s, true)
		if len(up) > g.NumASes()/3 {
			t.Fatalf("up-hierarchy of %d has %d members — too large", s, len(up))
		}
		if len(up) < 2 {
			t.Fatalf("up-hierarchy of %d trivial", s)
		}
	}
}

func TestRelationString(t *testing.T) {
	for r, want := range map[Relation]string{
		RelNone: "none", RelProvider: "provider", RelCustomer: "customer",
		RelPeer: "peer", RelBackup: "backup",
	} {
		if r.String() != want {
			t.Fatalf("Relation(%d).String() = %q", r, r.String())
		}
	}
}

func TestASSelfAdjacencyPanics(t *testing.T) {
	g := NewASGraph(2)
	defer func() {
		if recover() == nil {
			t.Fatal("self adjacency should panic")
		}
	}()
	g.SetRelation(1, 1, RelPeer)
}

// checkAdjacency compares every neighbour accessor of every AS, and
// Relation for every pair, with the reference relation rel (rel(a, b) is
// how a sees b, RelNone when not adjacent), scanning it in ascending AS
// order.
func checkAdjacency(t *testing.T, g *ASGraph, rel func(a, b ASN) Relation, stage string) {
	t.Helper()
	for i := 0; i < g.NumASes(); i++ {
		a := ASN(i)
		var primary, backup, customers, primaryCustomers, peers, all []ASN
		var isBackup []bool
		for j := 0; j < g.NumASes(); j++ {
			b := ASN(j)
			r := rel(a, b)
			if got := g.Relation(a, b); got != r {
				t.Fatalf("%s: Relation(%d, %d) = %v, the reference says %v", stage, a, b, got, r)
			}
			if r == RelNone {
				continue
			}
			all = append(all, b)
			switch r {
			case RelProvider:
				primary = append(primary, b)
			case RelBackup:
				backup = append(backup, b)
			case RelPeer:
				peers = append(peers, b)
			case RelCustomer:
				customers = append(customers, b)
				isBackup = append(isBackup, rel(b, a) == RelBackup)
				if rel(b, a) == RelProvider {
					primaryCustomers = append(primaryCustomers, b)
				}
			}
		}
		for _, c := range []struct {
			name      string
			got, want []ASN
		}{
			{"Providers", g.Providers(a), append(slices.Clone(primary), backup...)},
			{"PrimaryProviders", g.PrimaryProviders(a), primary},
			{"Customers", g.Customers(a), customers},
			{"PrimaryCustomers", g.PrimaryCustomers(a), primaryCustomers},
			{"Peers", g.Peers(a), peers},
			{"Neighbors", g.Neighbors(a), all},
		} {
			if !slices.Equal(c.got, c.want) {
				t.Fatalf("%s: %s(%d) = %v, the reference says %v", stage, c.name, a, c.got, c.want)
			}
		}
		if got := g.CustomerIsBackup(a); !slices.Equal(got, isBackup) {
			t.Fatalf("%s: CustomerIsBackup(%d) = %v, the reference says %v", stage, a, got, isBackup)
		}
	}
}

// TestAdjacencyIndexFollowsSetRelation interleaves SetRelation calls —
// new links and links whose relation changes — with full comparisons of
// the index against a relation map the test keeps from its own calls.
// The generated graph is then held to its own Relation answers, so its
// lists by relation agree with the relation column they are built from.
func TestAdjacencyIndexFollowsSetRelation(t *testing.T) {
	const n = 24
	g := NewASGraph(n)
	ref := make([]map[ASN]Relation, n)
	for i := range ref {
		ref[i] = map[ASN]Relation{}
	}
	refRel := func(a, b ASN) Relation { return ref[a][b] }
	back := map[Relation]Relation{RelProvider: RelCustomer, RelCustomer: RelProvider, RelPeer: RelPeer, RelBackup: RelCustomer}
	checkAdjacency(t, g, refRel, "empty")
	rng := rand.New(rand.NewSource(5))
	rels := []Relation{RelProvider, RelCustomer, RelPeer, RelBackup}
	var held, heldWas []ASN
	for step := 0; step < 400; step++ {
		if step == 200 {
			held = g.Neighbors(0)
			heldWas = slices.Clone(held)
		}
		a, b := ASN(rng.Intn(n)), ASN(rng.Intn(n))
		if a == b {
			continue
		}
		r := rels[rng.Intn(len(rels))]
		g.SetRelation(a, b, r)
		ref[a][b], ref[b][a] = r, back[r]
		if step%20 == 0 {
			checkAdjacency(t, g, refRel, "interleaved")
		}
	}
	checkAdjacency(t, g, refRel, "final")
	if len(held) == 0 || !slices.Equal(held, heldWas) {
		t.Fatalf("a slice obtained as %v reads %v after later SetRelation calls", heldWas, held)
	}
	gen := GenAS(DefaultASGen())
	checkAdjacency(t, gen, gen.Relation, "GenAS")
}

// TestFinishedGraphIsSafeToReadConcurrently is for the race detector: a
// graph nobody mutates is read by several goroutines at once, as the
// experiment drivers' parallel trials do.
func TestFinishedGraphIsSafeToReadConcurrently(t *testing.T) {
	g := GenAS(DefaultASGen())
	var wg sync.WaitGroup
	sums := make([]int, 4)
	for w := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < g.NumASes(); i++ {
				a := ASN(i)
				sums[w] += len(g.Providers(a)) + len(g.PrimaryProviders(a)) + len(g.Customers(a)) +
					len(g.CustomerIsBackup(a)) + len(g.PrimaryCustomers(a)) + len(g.Peers(a)) +
					len(g.Neighbors(a)) + len(g.UpHierarchyLevels(a, true)) + len(g.DownHierarchyPrimary(a))
			}
		}()
	}
	wg.Wait()
	for _, s := range sums[1:] {
		if s != sums[0] {
			t.Fatalf("readers disagree: %v", sums)
		}
	}
}

func BenchmarkASGraphCustomers(b *testing.B) {
	g := GenAS(DefaultASGen())
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(g.Customers(ASN(i % g.NumASes())))
	}
	if n < 0 {
		b.Fatal(n)
	}
}

// BenchmarkGenAS builds the AS graph of the repository benchmark's canon
// workloads (DefaultASGen with 1,000 hosts), whose build time is part of
// their setup_s.
func BenchmarkGenAS(b *testing.B) {
	cfg := DefaultASGen()
	cfg.Hosts = 1000
	b.ReportAllocs()
	for b.Loop() {
		GenAS(cfg)
	}
}
