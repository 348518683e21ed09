package topology

import (
	"math/rand"
	"slices"
)

// ASN identifies an autonomous system in an ASGraph.
type ASN int

// Relation labels one direction of an inter-AS adjacency, following the
// Gao/Subramanian taxonomy the paper relies on (§4.2): the Internet's
// policies "can be modeled as arising out of a simple hierarchical AS
// graph".
type Relation int8

const (
	// RelNone marks absent adjacency.
	RelNone Relation = iota
	// RelProvider: the neighbor is my provider (I am its customer).
	RelProvider
	// RelCustomer: the neighbor is my customer.
	RelCustomer
	// RelPeer: settlement-free peering.
	RelPeer
	// RelBackup: a provider link used only on failure of primary links
	// (paper §4.2 "backup links ... only if there is a failure").
	RelBackup
)

// String renders the relation for logs.
func (r Relation) String() string {
	switch r {
	case RelProvider:
		return "provider"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelBackup:
		return "backup"
	default:
		return "none"
	}
}

// ASGraph is an annotated AS-level topology. The paper models "each AS as
// a single node" interdomain (§6.1); we do the same.
//
// The neighbour accessors (Providers, PrimaryProviders, Customers,
// CustomerIsBackup, PrimaryCustomers, Peers, Neighbors) return slices of
// an index SetRelation maintains. They are read-only: callers range over
// them and must not modify or append to them. SetRelation replaces the
// slices of the two ASes it touches rather than editing them, so a graph
// nobody is mutating is safe to read from several goroutines and a slice
// obtained earlier keeps its contents.
type ASGraph struct {
	n     int
	adj   []adjacency // the only record of each AS's relations
	hosts []int       // skitter-substitute host counts
	tier  []int       // 1 = core clique, 2 = transit, 3 = stub
}

// adjacency is one AS's neighbours: all of them with the relation each
// has, and the same split by relation, each list ascending.
type adjacency struct {
	all              []ASN
	rels             []Relation // parallel to all: how this AS sees all[i]
	providers        []ASN      // primary, then backup
	primary          int        // providers[:primary] are the primary ones
	customers        []ASN
	customerIsBackup []bool // parallel to customers: the customer's backup link
	primaryCustomers []ASN
	peers            []ASN
}

// NewASGraph returns an empty AS graph with n ASes and no adjacencies.
func NewASGraph(n int) *ASGraph {
	return &ASGraph{
		n:     n,
		adj:   make([]adjacency, n),
		hosts: make([]int, n),
		tier:  make([]int, n),
	}
}

// NumASes returns the number of ASes.
func (g *ASGraph) NumASes() int { return g.n }

// SetRelation installs a directed pair: as seen from a, b is rel; the
// reverse direction is set to the inverse relation automatically. It
// rebuilds the adjacency index of both ends, at a cost of their degree.
func (g *ASGraph) SetRelation(a, b ASN, rel Relation) {
	if a == b {
		panic("topology: AS self-adjacency")
	}
	g.link(a, b, rel)
	g.link(b, a, inverse(rel))
	g.reindex(a)
	g.reindex(b)
}

// link records that a sees b as rel, in fresh slices.
func (g *ASGraph) link(a, b ASN, rel Relation) {
	x := &g.adj[a]
	i, found := slices.BinarySearch(x.all, b)
	if found {
		x.rels = slices.Clone(x.rels)
		x.rels[i] = rel
		return
	}
	x.all = insertAt(x.all, i, b)
	x.rels = insertAt(x.rels, i, rel)
}

// insertAt returns a fresh, exactly sized copy of s with v at index i.
func insertAt[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// reindex rebuilds a's lists by relation from its relation column, in
// fresh slices.
func (g *ASGraph) reindex(a ASN) {
	x := adjacency{all: g.adj[a].all, rels: g.adj[a].rels}
	var backup []ASN
	for i, b := range x.all {
		switch x.rels[i] {
		case RelProvider:
			x.providers = append(x.providers, b)
		case RelBackup:
			backup = append(backup, b)
		case RelCustomer:
			viaBackup := g.Relation(b, a) == RelBackup
			x.customers = append(x.customers, b)
			x.customerIsBackup = append(x.customerIsBackup, viaBackup)
			if !viaBackup {
				x.primaryCustomers = append(x.primaryCustomers, b)
			}
		case RelPeer:
			x.peers = append(x.peers, b)
		}
	}
	x.primary = len(x.providers)
	x.providers = append(x.providers, backup...)
	g.adj[a] = x
}

func inverse(r Relation) Relation {
	switch r {
	case RelProvider:
		return RelCustomer
	case RelCustomer:
		return RelProvider
	case RelBackup:
		// From the provider's side a backup customer link still carries
		// customer traffic when active.
		return RelCustomer
	default:
		return r
	}
}

// Relation returns how a sees b, RelNone when they are not adjacent.
func (g *ASGraph) Relation(a, b ASN) Relation {
	x := &g.adj[a]
	if i, ok := slices.BinarySearch(x.all, b); ok {
		return x.rels[i]
	}
	return RelNone
}

// Providers returns a's providers, primary ones ascending and then the
// backup ones ascending. Like every neighbour accessor, read-only.
func (g *ASGraph) Providers(a ASN) []ASN { return g.adj[a].providers }

// PrimaryProviders returns a's non-backup providers, ascending: the
// leading part of Providers(a).
func (g *ASGraph) PrimaryProviders(a ASN) []ASN {
	x := &g.adj[a]
	return x.providers[:x.primary:x.primary]
}

// Customers returns a's customers, ascending.
func (g *ASGraph) Customers(a ASN) []ASN { return g.adj[a].customers }

// CustomerIsBackup is parallel to Customers(a): whether that customer
// attaches to a over its backup link.
func (g *ASGraph) CustomerIsBackup(a ASN) []bool { return g.adj[a].customerIsBackup }

// PrimaryCustomers returns a's customers attached over primary (non
// backup) links, ascending. Customer cones built from these are what join
// strategies cover, since backup links are excluded from joins (§4.2).
func (g *ASGraph) PrimaryCustomers(a ASN) []ASN { return g.adj[a].primaryCustomers }

// Peers returns a's peers, ascending.
func (g *ASGraph) Peers(a ASN) []ASN { return g.adj[a].peers }

// Neighbors returns every adjacent AS regardless of relation, ascending.
func (g *ASGraph) Neighbors(a ASN) []ASN { return g.adj[a].all }

// SetHosts records the (skitter-substitute) host count of an AS.
func (g *ASGraph) SetHosts(a ASN, n int) { g.hosts[a] = n }

// Hosts returns the host count of an AS.
func (g *ASGraph) Hosts(a ASN) int { return g.hosts[a] }

// SetTier records the hierarchy tier (1 core, 2 transit, 3 stub).
func (g *ASGraph) SetTier(a ASN, t int) { g.tier[a] = t }

// Tier returns the hierarchy tier of a.
func (g *ASGraph) Tier(a ASN) int { return g.tier[a] }

// Stubs returns all tier-3 ASes, sorted. "Stub ASes (ASes near the
// network edge) are believed to be significantly more unstable" (§6.3) —
// the failure experiment samples from this set.
func (g *ASGraph) Stubs() []ASN {
	var out []ASN
	for a := 0; a < g.n; a++ {
		if g.tier[a] == 3 {
			out = append(out, ASN(a))
		}
	}
	return out
}

// UpHierarchy computes G_X: the DAG of all ASes "above" x — its
// providers, their providers, and so on (§2.3). Backup links are
// included only when includeBackup is set (the join treats them as
// standby paths). The result is a map from member AS to its providers
// within the sub-hierarchy, always containing x itself.
func (g *ASGraph) UpHierarchy(x ASN, includeBackup bool) map[ASN][]ASN {
	out := map[ASN][]ASN{x: nil}
	queue := []ASN{x}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		provs := g.PrimaryProviders(a)
		if includeBackup {
			provs = g.Providers(a)
		}
		for _, p := range provs {
			out[a] = append(out[a], p)
			if _, seen := out[p]; !seen {
				out[p] = nil
				queue = append(queue, p)
			}
		}
	}
	return out
}

// UpHierarchyLevels returns x's up-hierarchy flattened into levels:
// level 0 is {x}, level i+1 is the providers of level i not yet seen.
// Join requests discover one external successor per level (§2.3).
func (g *ASGraph) UpHierarchyLevels(x ASN, includeBackup bool) [][]ASN {
	seen := map[ASN]bool{x: true}
	levels := [][]ASN{{x}}
	cur := []ASN{x}
	for len(cur) > 0 {
		var next []ASN
		for _, a := range cur {
			provs := g.PrimaryProviders(a)
			if includeBackup {
				provs = g.Providers(a)
			}
			for _, p := range provs {
				if !seen[p] {
					seen[p] = true
					next = append(next, p)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		slices.Sort(next)
		levels = append(levels, next)
		cur = next
	}
	return levels
}

// InUpHierarchy reports whether y is in x's up-hierarchy (x included).
func (g *ASGraph) InUpHierarchy(x, y ASN, includeBackup bool) bool {
	_, ok := g.UpHierarchy(x, includeBackup)[y]
	return ok
}

// DownHierarchyPrimary returns the set of ASes at or below root via
// primary customer links (root included) — the subtree whose hosts a
// Bloom filter at root summarizes (§4.2), and the customer cone joins
// actually cover, since backup links are excluded from joins.
func (g *ASGraph) DownHierarchyPrimary(root ASN) []ASN {
	return g.downHierarchy(root, g.PrimaryCustomers)
}

func (g *ASGraph) downHierarchy(root ASN, customers func(ASN) []ASN) []ASN {
	seen := map[ASN]bool{root: true}
	out := []ASN{root}
	queue := []ASN{root}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, c := range customers(a) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
				queue = append(queue, c)
			}
		}
	}
	slices.Sort(out)
	return out
}

// ASGenConfig parameterizes the Internet-like AS topology generator.
type ASGenConfig struct {
	Tier1      int // core ASes, fully meshed with peering
	Tier2      int // transit ASes
	Stubs      int // edge ASes
	Hosts      int // total hosts, Zipf across stubs and transits
	ZipfS      float64
	PeerProb   float64 // probability of a tier-2 peering link
	BackupProb float64 // probability a multihomed stub's extra link is backup-only
	Seed       int64
}

// DefaultASGen mirrors the qualitative shape of the 2006 Routeviews graph
// at reduced scale: a small tier-1 clique, an order of magnitude more
// transits, and a long tail of stubs with 1–3 providers each.
func DefaultASGen() ASGenConfig {
	return ASGenConfig{
		Tier1: 8, Tier2: 60, Stubs: 400,
		Hosts: 30000, ZipfS: 1.1,
		PeerProb: 0.15, BackupProb: 0.3,
		Seed: 2006,
	}
}

// GenAS builds a deterministic Internet-like AS graph:
//
//   - tier-1 ASes form a full peering clique (the paper notes a clique of
//     Tier 1 ISPs needs only a single virtual AS, §4.2);
//   - each tier-2 AS buys transit from 1–3 tier-1s and peers with other
//     tier-2s with probability PeerProb;
//   - each stub buys transit from 1–3 tier-2s, with extra links demoted
//     to backup with probability BackupProb.
//
// Host counts follow a Zipf spread over stubs and tier-2s, reproducing
// the "highly uneven distribution of hosts across ASes" (§6.3).
func GenAS(cfg ASGenConfig) *ASGraph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Tier1 + cfg.Tier2 + cfg.Stubs
	g := NewASGraph(n)

	t1 := make([]ASN, cfg.Tier1)
	for i := range t1 {
		t1[i] = ASN(i)
		g.SetTier(t1[i], 1)
	}
	for i := 0; i < len(t1); i++ {
		for j := i + 1; j < len(t1); j++ {
			g.SetRelation(t1[i], t1[j], RelPeer)
		}
	}

	t2 := make([]ASN, cfg.Tier2)
	for i := range t2 {
		a := ASN(cfg.Tier1 + i)
		t2[i] = a
		g.SetTier(a, 2)
		for _, p := range pickDistinct(t1, 1+rng.Intn(3), rng) {
			g.SetRelation(a, p, RelProvider)
		}
	}
	for i := 0; i < len(t2); i++ {
		for j := i + 1; j < len(t2); j++ {
			if rng.Float64() < cfg.PeerProb {
				g.SetRelation(t2[i], t2[j], RelPeer)
			}
		}
	}

	for i := 0; i < cfg.Stubs; i++ {
		a := ASN(cfg.Tier1 + cfg.Tier2 + i)
		g.SetTier(a, 3)
		provs := pickDistinct(t2, 1+rng.Intn(3), rng)
		for k, p := range provs {
			rel := RelProvider
			if k > 0 && rng.Float64() < cfg.BackupProb {
				rel = RelBackup
			}
			g.SetRelation(a, p, rel)
		}
	}

	// Hosts: tier-2s and stubs get Zipf shares; tier-1s host none (pure
	// transit), matching how the paper seeds identifiers at edges.
	edges := make([]ASN, 0, cfg.Tier2+cfg.Stubs)
	edges = append(edges, t2...)
	for i := 0; i < cfg.Stubs; i++ {
		edges = append(edges, ASN(cfg.Tier1+cfg.Tier2+i))
	}
	for i, c := range ZipfSpread(cfg.Hosts, len(edges), cfg.ZipfS, rng) {
		g.SetHosts(edges[i], c)
	}
	return g
}

func pickDistinct(pool []ASN, k int, rng *rand.Rand) []ASN {
	if k > len(pool) {
		k = len(pool)
	}
	perm := rng.Perm(len(pool))
	out := make([]ASN, k)
	for i := 0; i < k; i++ {
		out[i] = pool[perm[i]]
	}
	slices.Sort(out)
	return out
}
