// Package canon implements ROFL's interdomain design (paper §4): a
// Canon-style hierarchical merge of per-AS rings. Every AS runs its own
// ring; a joining identifier additionally discovers an external successor
// at each level of its up-hierarchy (join_external, Algorithm 3), so that
// the union of all levels forms one global ring whose routing respects
// the *isolation property* — traffic between two hosts never leaves the
// subtree rooted at their earliest common ancestor that both joined.
//
// Policies are supported with the paper's two conversion rules (Fig 4):
// peering links become *virtual ASes* that act as a provider of both
// endpoints, and multihoming is handled by repeating the join across each
// provider; backup links are used only when primary links fail.
// Alternatively, per-AS Bloom filters summarize the hosts below each AS
// so packets can cross peering links without peering joins, with
// backtracking on false positives (§4.2). Proximity prefix fingers and
// AS-granularity pointer caches reduce stretch (§4.1, Fig 8b/8c).
//
// Following the paper's methodology, "we model each AS as a single node"
// (§6.1); message costs are AS-level hops along policy-compliant paths.
package canon

import (
	"fmt"
	"slices"

	"rofl/internal/bloom"
	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// Metrics counter names charged by this package.
const (
	msgJoin     = "canon-join"
	MsgRepair   = "canon-repair"
	msgTeardown = "canon-teardown"
	// ctrIsolationViolations counts delivered packets whose path escaped
	// the lowest joined common subtree. Zero on tree hierarchies; on
	// multihomed DAGs a diagnostic rate (see RouteResult.StrictlyIsolated).
	ctrIsolationViolations = "canon-strict-isolation-miss"
	// CtrBloomBacktracks counts peering-link crossings that had to be
	// returned because the Bloom filter false-positived.
	CtrBloomBacktracks = "canon-bloom-backtracks"
)

// Strategy selects how much of the up-hierarchy a join covers — the four
// modes compared in Fig 8a.
type Strategy uint8

const (
	// Ephemeral joins only at the global (top-level) ring.
	Ephemeral Strategy = iota
	// SingleHomed joins along one provider chain toward the core.
	SingleHomed
	// Multihomed joins recursively via every AS in the up-hierarchy.
	Multihomed
	// Peering joins, in addition, across every peering link adjacent to
	// the up-hierarchy (via virtual ASes) — the strongest isolation.
	Peering
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Ephemeral:
		return "ephemeral"
	case SingleHomed:
		return "single-homed"
	case Multihomed:
		return "rec-multihomed"
	case Peering:
		return "peering"
	default:
		return "unknown"
	}
}

// RootKind discriminates ring levels.
type RootKind uint8

const (
	// rootAS is the sub-hierarchy rooted at one AS.
	rootAS RootKind = iota
	// rootPeer is the virtual AS covering one peering link (Fig 4a).
	rootPeer
	// rootTop is the single virtual AS covering the tier-1 clique — and
	// therefore the whole Internet ("if several ASes are all peered
	// together in a clique, we only need a single virtual AS", §4.2).
	rootTop
)

// Root identifies one ring level: an AS sub-hierarchy, a peering virtual
// AS (A < B), or the global top.
type Root struct {
	Kind RootKind
	A, B topology.ASN
}

// String renders a root for logs: "AS7", "peer(3,9)" or "top".
func (r Root) String() string {
	switch r.Kind {
	case rootAS:
		return fmt.Sprintf("AS%d", r.A)
	case rootPeer:
		return fmt.Sprintf("peer(%d,%d)", r.A, r.B)
	case rootTop:
		return "top"
	default:
		return "root(?)"
	}
}

// top is the global ring's root.
var top = Root{Kind: rootTop}

// asRoot builds an AS-subtree root.
func asRoot(a topology.ASN) Root { return Root{Kind: rootAS, A: a} }

// peerRoot builds the virtual AS for a peering link, normalizing order.
func peerRoot(a, b topology.ASN) Root {
	if b < a {
		a, b = b, a
	}
	return Root{Kind: rootPeer, A: a, B: b}
}

// Ptr is one interdomain routing-state entry: a flat label and the AS
// hosting it. AS-level source routes are recomputed against the live
// policy graph at use time, which is what gives automatic failover when
// a multihomed AS loses an access link (§2.3).
type Ptr struct {
	ID ident.ID
	AS topology.ASN
}

// cachePointer renders p as an entry of the shared pointer cache, whose
// location field carries the AS number.
func cachePointer(p Ptr) vring.Pointer {
	return vring.Pointer{ID: p.ID, Router: vring.RouterID(p.AS)}
}

// ptrOf reads a cache entry back as an interdomain pointer.
func ptrOf(p vring.Pointer) Ptr { return Ptr{ID: p.ID, AS: topology.ASN(p.Router)} }

// level is one ring of the Canon hierarchy: the members that joined the
// subtree under root, ascending by identifier, each with its hosting AS.
// The ring is the level's only state — a member's successor and
// predecessor there are the entries either side of it, recorded nowhere
// else — held as ID-word columns so a search reads the high words alone.
type level struct {
	root Root
	size int // ASes in root's subtree; levels are ranked lowest (smallest) first
	ring ident.Columns[topology.ASN]
}

// at returns the i-th member.
func (lv *level) at(i int) (p Ptr) { p.ID, p.AS = lv.ring.At(i); return p }

// neighbours returns the predecessor and successor of the member id: the
// ring entries around it, which are the member itself in a ring of one.
func (lv *level) neighbours(id ident.ID) (pred, succ Ptr) {
	n := lv.ring.Len()
	i := lv.ring.Floor(id)
	return lv.at((i + n - 1) % n), lv.at((i + 1) % n)
}

// below orders levels lowest first: by subtree size, then rootLess.
func (lv *level) below(o *level) bool {
	if lv.size != o.size {
		return lv.size < o.size
	}
	return rootLess(lv.root, o.root)
}

// VNode is the interdomain routing state for one joined identifier.
type VNode struct {
	ID       ident.ID
	AS       topology.ASN
	Strategy Strategy

	// levels are the rings this node joined, lowest first.
	levels []*level

	// Fingers are proximity-based prefix-table entries, each annotated
	// with the lowest root whose subtree contains both endpoints (the
	// constraint that keeps finger shortcuts isolation-preserving, §4.1).
	Fingers []Finger
}

// Roots lists the levels this node joined, lowest (smallest subtree)
// first.
func (v *VNode) Roots() []Root {
	out := make([]Root, len(v.levels))
	for i, lv := range v.levels {
		out[i] = lv.root
	}
	return out
}

// Succ returns the node's successor at one level it joined.
func (v *VNode) Succ(root Root) (Ptr, bool) {
	for _, lv := range v.levels {
		if lv.root == root {
			_, succ := lv.neighbours(v.ID)
			return succ, true
		}
	}
	return Ptr{}, false
}

func rootLess(a, b Root) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// Finger is one prefix-table entry.
type Finger struct {
	Ptr
	Root Root // lowest level containing both the owner and the target
}

// AS is one autonomous system in the simulation.
type AS struct {
	ASN topology.ASN
	// VNs are the identifiers joined here, ascending by ID; Resident
	// finds one.
	VNs []*VNode
	// Cache is the AS-granularity pointer cache of §4.1: the exact-LRU
	// cache intradomain routers keep, with the AS number in the router
	// field. On the data path Bloom guards it, so shortcuts never violate
	// the isolation property. Nil when Options.CacheCapacity is 0.
	Cache *vring.PointerCache
	// Bloom summarizes all identifiers joined in this AS's
	// down-hierarchy; maintained when the Options enable Bloom peering or
	// caching (both need the isolation guard).
	Bloom *bloom.Filter

	// levelLists are the distinct level lists of VNs, each stored once:
	// residents that joined the same levels share one slice, so
	// selectPointer reads each list once however many residents hold it.
	// Its ranking is total, so their order (newest first) is free.
	levelLists [][]*level
}

// shareLevels returns the AS's list equal to levels, recording levels as
// a new one when no resident holds it yet.
func (as *AS) shareLevels(levels []*level) []*level {
	for _, l := range as.levelLists {
		if slices.Equal(l, levels) {
			return l
		}
	}
	as.levelLists = slices.Insert(as.levelLists, 0, levels)
	return levels
}

// dropLevels forgets levels, a departed resident's list, once no
// remaining resident holds it.
func (as *AS) dropLevels(levels []*level) {
	for _, vn := range as.VNs {
		if slices.Equal(vn.levels, levels) {
			return
		}
	}
	as.levelLists = slices.DeleteFunc(as.levelLists, func(l []*level) bool { return slices.Equal(l, levels) })
}

// search returns the lower bound of id in the resident table.
func (as *AS) search(id ident.ID) int {
	return ident.Search(len(as.VNs), func(k int) *ident.ID { return &as.VNs[k].ID }, id)
}

// Resident returns the node of id if id is joined at this AS, else nil.
func (as *AS) Resident(id ident.ID) *VNode {
	if i := as.search(id); i < len(as.VNs) && as.VNs[i].ID == id {
		return as.VNs[i]
	}
	return nil
}

// Options tunes the interdomain knobs the paper sweeps.
type Options struct {
	// FingerBudget bounds proximity fingers per node (Fig 8b sweeps 60,
	// 160, 280).
	FingerBudget int
	// CacheCapacity bounds each AS's pointer cache in entries; 0
	// disables, the paper's default ("we assume no ISPs use interdomain
	// pointer caches", §4.1).
	CacheCapacity int
	// BloomPeering switches peering support from virtual-AS joins
	// (option 1) to Bloom filters with backtracking (option 2, §4.2).
	BloomPeering bool
	// RandomFingers disables proximity-aware finger selection (ablation:
	// each slot takes an arbitrary matching identifier instead of the
	// lowest-level, nearest one).
	RandomFingers bool
	// Seed has no effect: no code reads it. It stays only because the
	// repository benchmark assigns it.
	Seed int64
}

// DefaultOptions mirrors the paper's baseline configuration.
func DefaultOptions() Options {
	return Options{
		FingerBudget:  0,
		CacheCapacity: 0,
		BloomPeering:  false,
	}
}

// Internet is the interdomain simulation state.
type Internet struct {
	G       *topology.ASGraph
	Metrics sim.Metrics

	opts Options
	ases []*AS

	// levels holds every ring level a join has named.
	levels map[Root]*level
	// joinLists are joinLevels' lists, by AS and strategy.
	joinLists map[joinKey][]*level

	// hostedAt is the oracle mapping identifiers to hosting ASes, used
	// for verification and stretch denominators only.
	hostedAt map[ident.ID]topology.ASN

	// below is every AS's customer cone over primary links, the subtree a
	// ring level covers. cone holds the full cones, backup links
	// included, which bound where any descent can go, by target: cone.has(d,
	// b) reports whether d lies in b's full cone.
	below, cone cones

	// failedLink marks failed AS adjacencies (A < B normalized).
	failedLink map[[2]topology.ASN]bool
	failedAS   []bool

	// virtualHosts maps identifiers to the provider AS that agreed to
	// host a virtual server for them during their own AS's outages
	// (§4.1: "an ISP may host virtual servers on behalf of a customer
	// ISP, which it can maintain during that customer's outages").
	virtualHosts map[ident.ID]topology.ASN

	search pathSearch
	// seg is the segment the route in progress follows; route resets it,
	// so nothing in it outlives one route.
	seg segment
}

// New builds an Internet over the annotated AS graph.
func New(g *topology.ASGraph, m sim.Metrics, opts Options) *Internet {
	in := &Internet{
		G:            g,
		Metrics:      m,
		opts:         opts,
		levels:       make(map[Root]*level),
		joinLists:    make(map[joinKey][]*level),
		hostedAt:     make(map[ident.ID]topology.ASN),
		failedLink:   make(map[[2]topology.ASN]bool),
		failedAS:     make([]bool, g.NumASes()),
		virtualHosts: make(map[ident.ID]topology.ASN),
		search: pathSearch{
			seen:   make([]bool, 2*g.NumASes()),
			parent: make([]int32, 2*g.NumASes()),
		},
	}
	in.ases = make([]*AS, g.NumASes())
	for i := range in.ases {
		in.ases[i] = &AS{ASN: topology.ASN(i)}
		if opts.CacheCapacity > 0 {
			in.ases[i].Cache = vring.NewPointerCache(opts.CacheCapacity)
		}
	}
	// Subtree membership is over primary links only: joins exclude backup
	// links, so it must too, or the isolation bookkeeping would expect
	// rings that were never joined.
	in.below = newCones(g, g.PrimaryCustomers)
	// Row d of the provider closure is every AS whose full customer cone
	// holds d, so a search reads one row per target.
	in.cone = newCones(g, g.Providers)
	// Bloom filters sized to each AS's expected customer-cone host count.
	if opts.BloomPeering || opts.CacheCapacity > 0 {
		for i := range in.ases {
			expect := 0
			for _, d := range g.DownHierarchyPrimary(topology.ASN(i)) {
				expect += g.Hosts(d)
			}
			if expect < 16 {
				expect = 16
			}
			in.ases[i].Bloom = bloom.NewForCapacity(expect, bloomFPRate)
		}
	}
	return in
}

// AS returns the simulation state of one AS.
func (in *Internet) AS(a topology.ASN) *AS { return in.ases[a] }

// HostingAS returns where id is joined (oracle).
func (in *Internet) HostingAS(id ident.ID) (topology.ASN, bool) {
	a, ok := in.hostedAt[id]
	return a, ok
}

// NumJoined returns the number of joined identifiers.
func (in *Internet) NumJoined() int { return len(in.hostedAt) }

// cones is one bitset per AS in one flat slice: row a has bit d set when
// d is a or lies below it over the links newCones followed.
type cones struct {
	words int // uint64s per row
	bits  []uint64
}

// newCones builds every AS's cone over the links down lists: customer
// cones over customer links, or over provider links the sets of ASes whose
// customer cone holds each AS.
func newCones(g *topology.ASGraph, down func(topology.ASN) []topology.ASN) cones {
	n := g.NumASes()
	c := cones{words: (n + 63) / 64}
	c.bits = make([]uint64, n*c.words)
	var queue []topology.ASN
	for a := range n {
		root := topology.ASN(a)
		c.add(root, root)
		queue = append(queue[:0], root)
		for k := 0; k < len(queue); k++ {
			for _, d := range down(queue[k]) {
				if !c.has(root, d) {
					c.add(root, d)
					queue = append(queue, d)
				}
			}
		}
	}
	return c
}

func (c cones) add(a, d topology.ASN) { c.bits[int(a)*c.words+int(d)>>6] |= 1 << (uint(d) & 63) }

// has reports whether d lies in a's cone.
func (c cones) has(a, d topology.ASN) bool {
	return c.bits[int(a)*c.words+int(d)>>6]>>(uint(d)&63)&1 != 0
}

// row returns a's cone, read once for many members.
func (c cones) row(a topology.ASN) coneRow { return c.bits[int(a)*c.words:][:c.words] }

// coneRow is one row of a cones.
type coneRow []uint64

// has reports whether d lies in the row's cone.
func (r coneRow) has(d topology.ASN) bool { return r[int(d)>>6]>>(uint(d)&63)&1 != 0 }

// inSubtree reports whether AS a lies inside root r's subtree.
func (in *Internet) inSubtree(r Root, a topology.ASN) bool {
	switch r.Kind {
	case rootTop:
		return true
	case rootAS:
		return in.below.has(r.A, a)
	case rootPeer:
		return in.below.has(r.A, a) || in.below.has(r.B, a)
	default:
		return false
	}
}

// level returns root r's ring level, creating it — empty, with the
// subtree counted once — the first time r is named.
func (in *Internet) level(r Root) *level {
	lv := in.levels[r]
	if lv == nil {
		lv = &level{root: r}
		for a := 0; a < in.G.NumASes(); a++ {
			if in.inSubtree(r, topology.ASN(a)) {
				lv.size++
			}
		}
		in.levels[r] = lv
	}
	return lv
}

// --- Policy-compliant AS paths -------------------------------------------

func linkKey(a, b topology.ASN) [2]topology.ASN {
	if b < a {
		a, b = b, a
	}
	return [2]topology.ASN{a, b}
}

// linkUp reports whether the a–b adjacency is usable.
func (in *Internet) linkUp(a, b topology.ASN) bool {
	if in.failedAS[a] || in.failedAS[b] {
		return false
	}
	return len(in.failedLink) == 0 || !in.failedLink[linkKey(a, b)]
}

// activeProviders returns, in buf's storage, a's usable upstream links:
// primary providers first; backup links only when every primary link is
// down (§4.2 "backup links ... an AS joins ... through one of its
// providers, and uses the other providers as backup, in case the primary
// provider fails").
func (in *Internet) activeProviders(buf []topology.ASN, a topology.ASN) []topology.ASN {
	buf = buf[:0]
	primary := len(in.G.PrimaryProviders(a))
	for i, p := range in.G.Providers(a) {
		if i == primary && len(buf) > 0 {
			break
		}
		if in.linkUp(a, p) {
			buf = append(buf, p)
		}
	}
	return buf
}

// hasPrimaryUp reports whether AS c still has a usable primary provider
// link.
func (in *Internet) hasPrimaryUp(c topology.ASN) bool {
	for _, p := range in.G.PrimaryProviders(c) {
		if in.linkUp(c, p) {
			return true
		}
	}
	return false
}

// pathSearch is policyPaths' reusable state. A search state is 2*AS +
// phase: phase 0 may still ascend, phase 1 only descends. A search seeks
// to and also, and ends each at the state it reached it at.
type pathSearch struct {
	seen           []bool
	parent         []int32
	queue          []int32 // states in visit order; the last search's are the ones seen
	provs          []topology.ASN
	to, also       topology.ASN
	toEnd, alsoEnd int32
	path, alsoPath []topology.ASN
}

// policyPaths is the one valley-free search under every join and route:
// the shortest paths from `from` to `to` and to `also` (the same AS for
// one path) over ASes that are `inside`, ascending provider links (§4.2:
// backup ones only while every primary one is down), crossing at most
// one peering link that `mayCross` admits (none when it is nil), then
// descending customer links. It visits neighbours in ascending AS order,
// so ties between equal-length paths are a function of the graph alone.
// A path is nil when no such path exists, and valid only until the next
// search on this Internet.
//
// A descending state at c is never pushed when neither target is inside
// c's full customer cone: every descent from it stays in that cone, so it
// and all its successors are dead ends. The states kept are therefore
// closed under predecessors, which leaves the visit order among them and
// the parent of each what the unpruned search gives: each path is the one
// a search for its target alone returns. The cones are held by target, so
// the search reads each target's row once and asks every candidate its
// bit there before any other test.
func (in *Internet) policyPaths(from, to, also topology.ASN, inside func(topology.ASN) bool, mayCross func(a, q topology.ASN) bool) (toPath, alsoPath []topology.ASN) {
	s := &in.search
	// A target's end is the start when it is `from`, -2 out of reach, and
	// -1 while it is sought.
	start := int32(from) * 2
	end := func(d topology.ASN) int32 {
		switch {
		case d == from:
			return start
		case !inside(d) || in.failedAS[d]:
			return -2
		}
		return -1
	}
	s.to, s.also, s.toEnd = to, also, end(to)
	s.alsoEnd = s.toEnd
	if also != to {
		s.alsoEnd = end(also)
	}
	s.parent[start] = -1 // a path to `from` is `from`, pushed or not
	if s.toEnd == -1 || s.alsoEnd == -1 {
		in.reach(from, inside, mayCross)
	}
	s.path = s.walk(s.path, s.toEnd)
	if s.alsoEnd == s.toEnd {
		return s.path, s.path
	}
	s.alsoPath = s.walk(s.alsoPath, s.alsoEnd)
	return s.path, s.alsoPath
}

// searchWork counts policy searches and the candidates they hand push.
type searchWork struct{ searches, candidates int }

// testSearchWork, nil outside tests, counts reach's work.
var testSearchWork *searchWork

// reach is policyPaths' search: it runs until both targets have an end.
func (in *Internet) reach(from topology.ASN, inside func(topology.ASN) bool, mayCross func(a, q topology.ASN) bool) {
	s := &in.search
	if testSearchWork != nil {
		testSearchWork.searches++
	}
	for _, st := range s.queue {
		s.seen[st] = false
	}
	s.queue = s.queue[:0]
	// The ASes whose full customer cone holds to, and also: a descent can
	// reach a target only from them.
	toRow, alsoRow := in.cone.row(s.to), in.cone.row(s.also)
	cur := int32(-1) // the state being expanded (none above the start)
	// push visits (b, phase) from cur and reports whether b is a target.
	push := func(b topology.ASN, phase int32) bool {
		if testSearchWork != nil {
			testSearchWork.candidates++
		}
		st := int32(b)*2 + phase
		if in.failedAS[b] || s.seen[st] || phase == 1 && !toRow.has(b) && !alsoRow.has(b) || !inside(b) {
			return false
		}
		s.seen[st] = true
		s.parent[st] = cur
		s.queue = append(s.queue, st)
		return b == s.to || b == s.also
	}
	// reached ends a target first met at the state push just queued and
	// reports whether the search is over. Inside push it would keep push
	// from being inlined.
	reached := func() bool {
		st := s.queue[len(s.queue)-1]
		if s.toEnd == -1 && topology.ASN(st/2) == s.to {
			s.toEnd = st
		}
		if s.alsoEnd == -1 && topology.ASN(st/2) == s.also {
			s.alsoEnd = st
		}
		return s.toEnd != -1 && s.alsoEnd != -1
	}
	push(from, 0) // refused, and the search empty, when from is failed or outside
search:
	for head := 0; head < len(s.queue); head++ {
		cur = s.queue[head]
		a := topology.ASN(cur / 2)
		if cur%2 == 0 {
			s.provs = in.activeProviders(s.provs, a)
			for _, p := range s.provs {
				if push(p, 0) && reached() {
					break search
				}
			}
			for _, q := range in.G.Peers(a) {
				if mayCross != nil && in.linkUp(a, q) && mayCross(a, q) && push(q, 1) && reached() {
					break search
				}
			}
		}
		backup := in.G.CustomerIsBackup(a)
		for i, c := range in.G.Customers(a) {
			// push's cone test, asked first: most customers' cones hold
			// neither target. A backup customer link carries traffic only
			// while the customer's primary access links are all down
			// (§4.2).
			if !toRow.has(c) && !alsoRow.has(c) || !in.linkUp(a, c) || backup[i] && in.hasPrimaryUp(c) {
				continue
			}
			if push(c, 1) && reached() {
				break search
			}
		}
	}
}

// walk rebuilds into buf the path to state end, nil for a negative one.
func (s *pathSearch) walk(buf []topology.ASN, end int32) []topology.ASN {
	if end < 0 {
		return nil
	}
	buf = buf[:0]
	for st := end; st != -1; st = s.parent[st] {
		buf = append(buf, topology.ASN(st/2))
	}
	slices.Reverse(buf)
	return buf
}

// pathWithin returns the shortest policy-compliant AS path from `from`
// to `to` that never leaves root's subtree; the only peering link it may
// cross is the root's own (rootPeer) or one between tier-1s (rootTop).
// Nil when no such path exists — e.g. across a partition. Like
// policyPaths', the result is valid until the next search.
func (in *Internet) pathWithin(root Root, from, to topology.ASN) []topology.ASN {
	path, _ := in.pathsWithin(root, from, to, to)
	return path
}

// pathsWithin is pathWithin to two targets in one search.
func (in *Internet) pathsWithin(root Root, from, to, also topology.ASN) (toPath, alsoPath []topology.ASN) {
	var mayCross func(a, q topology.ASN) bool // an AS subtree's paths cross none
	switch root.Kind {
	case rootPeer:
		mayCross = func(a, q topology.ASN) bool { return (a == root.A && q == root.B) || (a == root.B && q == root.A) }
	case rootTop:
		mayCross = func(a, q topology.ASN) bool { return in.G.Tier(a) == 1 && in.G.Tier(q) == 1 }
	}
	return in.policyPaths(from, to, also, func(a topology.ASN) bool { return in.inSubtree(root, a) }, mayCross)
}

// hopsWithin is pathWithin's hop count, or -1.
func (in *Internet) hopsWithin(root Root, from, to topology.ASN) int {
	return len(in.pathWithin(root, from, to)) - 1
}
