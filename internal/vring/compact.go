package vring

import (
	"encoding/binary"
	"slices"
	"sort"

	"rofl/internal/ident"
	"rofl/internal/linkstate"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// This file is the million-host variant of the intradomain ring: the
// same protocol shape as Network (successor groups, predecessor
// pointers, parked ephemerals, per-router pointer caches, greedy
// forwarding) restructured so one machine can hold and converge a ring
// of 1M+ resident identifiers.
//
// Three changes carry the scale:
//
//  1. Interning. Node IDs live once in an ident.Intern table; every
//     piece of per-node routing state (successor slab, predecessor,
//     cache entries, parked children) stores 4-byte dense handles
//     instead of 16-byte labels, and all per-node state is
//     struct-of-arrays indexed by handle — no per-node heap objects.
//  2. Slab allocation. Events are value Msgs in the sharded engine's
//     reused slabs and window buckets; parked ephemeral state and its
//     packed source routes are append-only slabs; each router's cache
//     is one slab of keyed slots, bucketed by span words.
//     The event path allocates only by amortised append to one pointer
//     deposit list per router, which Run reads and releases (guarded
//     by TestWarmCachesBoundedMemory's mallocs-per-message budget).
//  3. Sharding. Convergence runs on sim.ShardedEngine with nodes
//     grouped by hosting router (affinity = router index), so each
//     router's pointer cache is owned by exactly one shard and the run
//     is byte-identical at any shard count (see the shard-invariance
//     test, the PR-10 analogue of the cross-driver journal gate).

// Metrics names charged by the compact ring. Control messages are
// charged by physical hops traversed, matching the §6.1 methodology.
const (
	MsgCompactControl = "cring-control"
	// CtrCompactCacheHit / Miss count pointer-cache consultations
	// during measurement probes.
	CtrCompactCacheHit  = "cring-cache-hit"
	CtrCompactCacheMiss = "cring-cache-miss"
)

// Sample names recorded by the compact ring's measurement probes.
const (
	SampleCompactStretch  = "cring-stretch"
	SampleCompactJoinMsgs = "cring-join-msgs"
)

// Protocol message kinds on the sharded engine.
const (
	cmTimer    uint16 = iota // self: run one stabilize round
	cmGetSucc                // ask the receiver for its successor list
	cmSuccList               // reply: Args carries up to 4 successor handles
)

// Journal kinds recorded during convergence (sharded-run invariance is
// proven over these).
const (
	cjPredAdopt uint16 = iota // Node adopted A as predecessor
	cjSuccAdopt               // Node's successor group changed after merging from A
	cjStable                  // Node reached a stable successor group of size A
)

// maxCompactSuccessors is the successor-group ceiling: a group must fit
// one sim.Msg advertisement (len(Msg.Args)).
const maxCompactSuccessors = 4

// CompactConfig sizes one compact-ring simulation.
type CompactConfig struct {
	// Hosts is the number of stable ring members.
	Hosts int
	// EphemeralEvery attaches one ephemeral host (parked at its ring
	// predecessor with a packed source route, §2.2) per this many
	// stable hosts; 0 disables ephemerals.
	EphemeralEvery int
	// SuccessorGroup is the per-node successor count (1..4).
	SuccessorGroup int
	// CacheCapacity bounds each router's pointer cache, in entries.
	CacheCapacity int
	// Shards is the shard count (1 reproduces the serial run; results
	// are byte-identical at any value).
	Shards int
	// Seed feeds ID generation, placement, and per-node jitter.
	Seed int64
}

const (
	// compactStabilizeEvery is the virtual time between a node's
	// stabilize rounds.
	compactStabilizeEvery sim.Time = 10
	// compactLookahead is the sharded engine's minimum inter-node delay
	// and barrier window; physical latencies below it are clamped up.
	compactLookahead sim.Time = 1
	// compactTTL bounds measurement-probe forwarding steps.
	compactTTL = 4096
)

// DefaultCompactConfig mirrors the Network defaults at compact scale.
func DefaultCompactConfig() CompactConfig {
	return CompactConfig{
		Hosts:          10000,
		EphemeralEvery: 0,
		SuccessorGroup: 3,
		CacheCapacity:  8192,
		Shards:         1,
		Seed:           1,
	}
}

// cacheSlot is one pointer-cache entry: an interned member handle plus
// its search key, the 32 ID bits directly below the bucket's prefix
// bits. Within a bucket the prefix is shared, so (key, ID) order is ID
// order and a lookup compares keys, reading a full ID only when a key
// ties. 8 bytes, versus the 24-byte ID, router and stamp entry of
// PointerCache. Caches are written only before Run returns and read only
// after, so a slot keeps no recency.
type cacheSlot struct {
	h   ident.Handle
	key uint32
}

// compactCache is a bucketed pointer cache over interned handles.
// Entries hash into buckets by ID prefix (IDs are uniform, so buckets
// stay balanced); each bucket is a run of at most bucketCap slots of one
// per-router slab, in ID order, found through its span word. It is built
// once by Run (warmCaches) as if every deposit had been inserted with
// eviction LRU *within the insertion bucket*: a documented approximation
// of global LRU that keeps every operation bucket-local and
// deterministic.
type compactCache struct {
	slots     []cacheSlot
	buckets   []uint32 // one span word per bucket: slab offset<<spanLenBits | length
	bucketCap int
	shift     uint // bucket = uint32(id[0:4]) >> shift
	size      int
}

const cacheBucketTarget = 16

// spanLenBits holds a bucket's length, at most cacheBucketTarget, in the
// low bits of its span word; the offset takes the other 27, room for
// slabs of 2^27 slots (capacities up to 2^26 entries).
const spanLenBits = 5

// span decodes a span word into its bucket's slab offset and length.
func span(w uint32) (off, n int) {
	return int(w >> spanLenBits), int(w & (1<<spanLenBits - 1))
}

func newCompactCache(capacity int) compactCache {
	if capacity <= 0 {
		return compactCache{}
	}
	nb := 1
	for nb*cacheBucketTarget < capacity {
		nb <<= 1
	}
	shift := uint(32)
	for b := nb; b > 1; b >>= 1 {
		shift--
	}
	bc := capacity / nb
	if bc < 4 {
		bc = 4
	}
	return compactCache{
		buckets:   make([]uint32, nb),
		bucketCap: bc,
		shift:     shift,
	}
}

// CompactRing is the struct-of-arrays ring. Build with NewCompactRing,
// converge with Run, then measure with Probe/ProbeJoin/Footprint.
type CompactRing struct {
	cfg     CompactConfig
	intern  *ident.Intern
	ids     []ident.ID // ids[h]; aliases the intern's ID slab
	members int        // handles [0, members) are ring members; the rest are ephemerals

	// Per-node protocol state, all handle-indexed slabs.
	router []uint32       // hosting router
	succs  []ident.Handle // stride cfg.SuccessorGroup, clockwise-nearest first
	nsucc  []uint8
	pred   []ident.Handle
	rngs   []uint64 // splitmix64 per-node jitter state
	stable []uint8  // consecutive no-change stabilize rounds

	// Parked ephemerals: per-member singly linked list in slabs, each
	// entry holding the child handle and a packed source route (router
	// indices) into routeSlab.
	parkedHead  []int32 // per member; -1 = none
	parkedNext  []int32
	parkedChild []ident.Handle
	routeOff    []uint32
	routeLen    []uint16
	routeLat    []float32
	routeSlab   []uint16

	// Physical substrate: dense all-pairs latency/hop matrices over the
	// ISP's routers (precomputed once; probes and control charging are
	// then pure array reads), plus the link-state view for router paths.
	nrouters int
	latM     []float32
	hopM     []uint16
	ls       *linkstate.Map

	caches []compactCache // per router
	// deposits queues each router's pending cache inserts. Handlers run
	// on the router's own shard, so a list holds that shard's (At, Src,
	// Seq) order, which is shard-count invariant; warmCaches reads the
	// lists, as a router's oldest deposits, and releases them.
	deposits [][]ident.Handle

	eng     *sim.ShardedEngine
	msgs    sim.Metrics // merged engine metrics after Run
	probeMx sim.Metrics // measurement-phase sink (serial)
}

// NewCompactRing builds a primed, unconverged ring of cfg.Hosts member
// identifiers (plus ephemerals) hosted uniformly across the ISP's
// access routers. Each member starts knowing only its immediate
// clockwise successor — the state a completed Algorithm-1 join leaves
// behind — and must discover its full successor group and predecessor
// by running stabilization to convergence (Run).
func NewCompactRing(isp *topology.ISP, cfg CompactConfig) *CompactRing {
	if cfg.Hosts < 1 {
		cfg.Hosts = 1
	}
	if cfg.SuccessorGroup < 1 {
		cfg.SuccessorGroup = 1
	}
	if cfg.SuccessorGroup > maxCompactSuccessors {
		cfg.SuccessorGroup = maxCompactSuccessors
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}

	m := cfg.Hosts
	e := 0
	if cfg.EphemeralEvery > 0 {
		e = m / cfg.EphemeralEvery
	}
	n := m + e
	r := &CompactRing{
		cfg:     cfg,
		intern:  ident.NewInternSize(n),
		members: m,
		probeMx: sim.NewMetrics(),
	}

	// Mint and intern identities: members first (handles [0, m)), then
	// ephemerals. Handles are dense, so they index every slab below.
	var seedBuf [16]byte
	binary.BigEndian.PutUint64(seedBuf[:8], uint64(cfg.Seed))
	for i := 0; i < m; i++ {
		binary.BigEndian.PutUint64(seedBuf[8:], uint64(i))
		r.intern.Handle(ident.FromBytes(seedBuf[:]))
	}
	for i := 0; i < e; i++ {
		binary.BigEndian.PutUint64(seedBuf[8:], uint64(m+i))
		seedBuf[0] ^= 0xa5 // distinct stream for ephemerals
		r.intern.Handle(ident.FromBytes(seedBuf[:]))
		seedBuf[0] ^= 0xa5
	}
	r.ids = r.intern.IDs()

	// Placement: uniform over access routers, from a seeded stream.
	g := isp.Graph
	r.nrouters = g.NumNodes()
	r.router = make([]uint32, n)
	place := uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15
	for h := 0; h < n; h++ {
		r.router[h] = uint32(isp.Access[sim.SplitMix64(&place)%uint64(len(isp.Access))])
	}

	// All-pairs physical metric over the router graph: one cached-SPT
	// sweep per source, then dense float32/uint16 matrices.
	ls := linkstate.New(g, sim.NewMetrics())
	r.ls = ls
	r.latM = make([]float32, r.nrouters*r.nrouters)
	r.hopM = make([]uint16, r.nrouters*r.nrouters)
	for a := 0; a < r.nrouters; a++ {
		for b := 0; b < r.nrouters; b++ {
			r.latM[a*r.nrouters+b] = float32(ls.Latency(topology.NodeID(a), topology.NodeID(b)))
			r.hopM[a*r.nrouters+b] = uint16(ls.Hops(topology.NodeID(a), topology.NodeID(b)))
		}
	}

	// Ring wiring: sort member handles by ID; each starts with only its
	// immediate successor (nsucc = 1) and no predecessor.
	s := cfg.SuccessorGroup
	r.succs = make([]ident.Handle, m*s)
	for i := range r.succs {
		r.succs[i] = ident.NoHandle
	}
	r.nsucc = make([]uint8, m)
	r.pred = make([]ident.Handle, m)
	for i := range r.pred {
		r.pred[i] = ident.NoHandle
	}
	sorted := make([]ident.Handle, m)
	for i := range sorted {
		sorted[i] = ident.Handle(i)
	}
	sort.Slice(sorted, func(i, j int) bool { return r.ids[sorted[i]].Less(r.ids[sorted[j]]) })
	if m > 1 {
		for i, h := range sorted {
			r.succs[int(h)*s] = sorted[(i+1)%m]
			r.nsucc[h] = 1
		}
	}

	// Parked ephemerals: each ephemeral's ring predecessor parks the
	// child handle plus a packed source route (the router path from the
	// predecessor's router to the child's), exactly the state §2.2
	// leaves at the predecessor after an ephemeral join.
	r.parkedHead = make([]int32, m)
	for i := range r.parkedHead {
		r.parkedHead[i] = -1
	}
	if e > 0 {
		for i := 0; i < e; i++ {
			child := ident.Handle(m + i)
			cid := r.ids[child]
			// Ring predecessor: the largest member below the child, wrapping
			// (Floor's -1) to the last one.
			rank := ident.Floor(m, func(k int) *ident.ID { return &r.ids[sorted[k]] }, cid)
			p := sorted[(rank+m)%m]
			path := ls.Path(topology.NodeID(r.router[p]), topology.NodeID(r.router[child]))
			off := uint32(len(r.routeSlab))
			for _, node := range path {
				r.routeSlab = append(r.routeSlab, uint16(node))
			}
			idx := int32(len(r.parkedChild))
			r.parkedChild = append(r.parkedChild, child)
			r.routeOff = append(r.routeOff, off)
			r.routeLen = append(r.routeLen, uint16(len(path)))
			r.routeLat = append(r.routeLat, r.latM[int(r.router[p])*r.nrouters+int(r.router[child])])
			r.parkedNext = append(r.parkedNext, r.parkedHead[p])
			r.parkedHead[p] = idx
		}
	}

	// Per-router caches and per-node jitter streams.
	r.caches = make([]compactCache, r.nrouters)
	for i := range r.caches {
		r.caches[i] = newCompactCache(cfg.CacheCapacity)
	}
	r.deposits = make([][]ident.Handle, r.nrouters)
	r.rngs = make([]uint64, n)
	for h := 0; h < n; h++ {
		r.rngs[h] = uint64(cfg.Seed)<<32 ^ uint64(h) ^ 0xdeadbeefcafef00d
	}
	r.stable = make([]uint8, m)

	// Sharded engine: nodes grouped by hosting router so each router's
	// cache is shard-private; prime one jittered stabilize timer per
	// member.
	r.eng = sim.NewSharded(n, cfg.Shards, compactLookahead, r.router, r)
	if m > 1 {
		for h := 0; h < m; h++ {
			jitter := sim.Time(sim.SplitMix64(&r.rngs[h])%1024) / 1024 * compactStabilizeEvery
			r.eng.Prime(jitter, sim.Msg{Src: uint32(h), Dst: uint32(h), Kind: cmTimer})
		}
	}
	return r
}

// Run drives stabilization to convergence (queue drain: every member
// has seen two consecutive no-change rounds) and returns the virtual
// time taken.
func (r *CompactRing) Run() sim.Time {
	t := r.eng.Run()
	r.msgs = r.eng.MergedMetrics()
	r.warmCaches()
	return t
}

// joinResidueDeposits approximates the transit-router count of one
// greedy join walk: the routers a random joiner's control traffic
// crossed, each of which cached the joiner's pointer.
const joinResidueDeposits = 32

// warmCaches fills the pointer caches and leaves them readable. A
// router's deposits are, oldest first: the event run's, in its router's
// (At, Src, Seq) order (the router is its nodes' affinity key, and the
// engine reads each group in that order); the §3.1 on-path deposits of
// one stabilize round (the run deposits only at endpoint routers, which
// its shard owns); the join-epoch residue. A cache depends only on that
// sequence, so it is built newest-first, every list read backward.
func (r *CompactRing) warmCaches() {
	const warmBlock = 8192
	// onShards runs f for every router on the shard that owns it
	// (router % shards, the engine's rule).
	onShards := func(f func(rt uint32)) {
		sim.ForEach(r.cfg.Shards, r.cfg.Shards, func(s int) {
			for rt := s; rt < r.nrouters; rt += r.cfg.Shards {
				f(uint32(rt))
			}
		})
	}
	onShards(func(rt uint32) { r.caches[rt].startBuild() })
	lists := make([][]ident.Handle, r.nrouters)
	// inBlocks gathers warmBlock members serially, last block first, onto
	// per-router lists, then hands each list to its cache on its shard.
	inBlocks := func(gather func(u int)) {
		for lo := (r.members - 1) / warmBlock * warmBlock; lo >= 0; lo -= warmBlock {
			for u := lo; u < min(lo+warmBlock, r.members); u++ {
				gather(u)
			}
			onShards(func(rt uint32) {
				r.takeOlder(&r.caches[rt], lists[rt])
				lists[rt] = lists[rt][:0]
			})
		}
	}
	// queuePath queues h at every router the a→b shortest path transits
	// (excluding the origin, matching Network.hop), climbing a's
	// shortest-path tree from b; each router gets h once.
	queuePath := func(a, b uint32, h ident.Handle) {
		parent := r.ls.Parents(topology.NodeID(a))
		for n := topology.NodeID(b); n != topology.NodeID(a); n = parent[n] {
			lists[n] = append(lists[n], h)
		}
	}
	// Join-epoch residue. The ring is constructed already wired (each
	// member knows succ0), so the event run never replays the join walks
	// that, in Network, deposit every joiner's pointer across the
	// routers its greedy walk transits. A random joiner's transit set is
	// an essentially uniform router sample, so the residue is
	// reconstructed from a seeded stream: without it, caches hold only
	// ring-neighbor pointers and stretch collapses to successor
	// stepping.
	inBlocks(func(u int) {
		st := uint64(r.cfg.Seed)<<20 ^ uint64(u)*0x9e3779b97f4a7c15
		for t := 0; t < joinResidueDeposits; t++ {
			rt := sim.SplitMix64(&st) % uint64(r.nrouters)
			lists[rt] = append(lists[rt], ident.Handle(u))
		}
	})
	inBlocks(func(u int) {
		if r.nsucc[u] == 0 {
			return
		}
		s0 := r.succs[u*r.cfg.SuccessorGroup]
		// One stabilize round-trip: u's cmGetSucc toward succ0, then the
		// cmSuccList reply — each deposits its sender along the path.
		queuePath(r.router[u], r.router[s0], ident.Handle(u))
		queuePath(r.router[s0], r.router[u], s0)
	})
	onShards(func(rt uint32) {
		r.takeOlder(&r.caches[rt], r.deposits[rt])
		r.finishBuild(&r.caches[rt])
	})
	r.deposits = nil
}

// HandleMsg dispatches one protocol event. It is the event hot path of
// the compact ring: everything it reaches operates on pre-sized slabs
// and value messages, except the per-router deposit lists, which grow
// by amortised append.
func (r *CompactRing) HandleMsg(sc *sim.ShardContext, m sim.Msg) {
	switch m.Kind {
	case cmTimer:
		r.onTimer(sc, m)
	case cmGetSucc:
		r.onGetSucc(sc, m)
	case cmSuccList:
		r.onSuccList(sc, m)
	}
}

// chargeControl counts one control message's physical hops and returns
// its one-way latency as the event delay.
func (r *CompactRing) chargeControl(sc *sim.ShardContext, from, to ident.Handle) sim.Time {
	a, b := int(r.router[from]), int(r.router[to])
	sc.Metrics.Count(MsgCompactControl, int64(r.hopM[a*r.nrouters+b]))
	return sim.Time(r.latM[a*r.nrouters+b])
}

// onTimer runs one stabilize round at node u: ask the immediate
// successor for its successor list.
func (r *CompactRing) onTimer(sc *sim.ShardContext, m sim.Msg) {
	u := ident.Handle(m.Dst)
	if r.nsucc[u] == 0 {
		return // singleton ring: nothing to stabilize
	}
	s0 := r.succs[int(u)*r.cfg.SuccessorGroup]
	d := r.chargeControl(sc, u, s0)
	sc.Send(d, sim.Msg{Src: uint32(u), Dst: uint32(s0), Kind: cmGetSucc})
}

// onGetSucc serves a successor-list request at node v: adopt the
// requester as predecessor if it is closer, deposit the sender pointer
// for the local router's cache (control traffic fills caches, §3.1),
// and reply with the successor group.
func (r *CompactRing) onGetSucc(sc *sim.ShardContext, m sim.Msg) {
	v, u := ident.Handle(m.Dst), ident.Handle(m.Src)
	rt := r.router[v]
	r.deposits[rt] = append(r.deposits[rt], u)
	p := r.pred[v]
	if p == ident.NoHandle || ident.BetweenOpen(r.ids[u], r.ids[p], r.ids[v]) {
		r.pred[v] = u
		sc.Journal(cjPredAdopt, uint32(v), uint32(u), 0)
	}
	reply := sim.Msg{Src: uint32(v), Dst: uint32(u), Kind: cmSuccList}
	base := int(v) * r.cfg.SuccessorGroup
	for k := 0; k < len(reply.Args); k++ {
		if k < int(r.nsucc[v]) {
			reply.Args[k] = uint32(r.succs[base+k])
		} else {
			reply.Args[k] = uint32(ident.NoHandle)
		}
	}
	d := r.chargeControl(sc, v, u)
	sc.Send(d, reply)
}

// onSuccList merges an advertised successor group into node u's own,
// updates the stability counter, and reschedules the stabilize timer
// until two consecutive rounds change nothing.
func (r *CompactRing) onSuccList(sc *sim.ShardContext, m sim.Msg) {
	u, v := ident.Handle(m.Dst), ident.Handle(m.Src)
	rt := r.router[u]
	r.deposits[rt] = append(r.deposits[rt], v)

	// Candidate pool: current group, the replying successor, and its
	// advertised group — at most 4+1+4 handles, in fixed storage.
	var cand [2*maxCompactSuccessors + 1]ident.Handle
	nc := 0
	base := int(u) * r.cfg.SuccessorGroup
	for k := 0; k < int(r.nsucc[u]); k++ {
		cand[nc] = r.succs[base+k]
		nc++
	}
	nc = r.addCandidate(cand[:], nc, u, v)
	for _, a := range m.Args {
		nc = r.addCandidate(cand[:], nc, u, ident.Handle(a))
	}

	// Selection-sort the pool by clockwise distance from u and keep the
	// nearest SuccessorGroup entries. Each distance is computed once and
	// moves with its candidate; distinct IDs have distinct distances.
	uid := r.ids[u]
	var dist [len(cand)]ident.ID
	for i := 0; i < nc; i++ {
		dist[i] = uid.Distance(r.ids[cand[i]])
	}
	for i := 0; i < nc-1; i++ {
		min := i
		for j := i + 1; j < nc; j++ {
			if dist[j].Less(dist[min]) {
				min = j
			}
		}
		cand[i], cand[min] = cand[min], cand[i]
		dist[i], dist[min] = dist[min], dist[i]
	}
	keep := nc
	if keep > r.cfg.SuccessorGroup {
		keep = r.cfg.SuccessorGroup
	}
	changed := keep != int(r.nsucc[u])
	for k := 0; k < keep; k++ {
		if r.succs[base+k] != cand[k] {
			changed = true
			r.succs[base+k] = cand[k]
		}
	}
	r.nsucc[u] = uint8(keep)

	if changed {
		r.stable[u] = 0
		sc.Journal(cjSuccAdopt, uint32(u), uint32(v), uint32(keep))
	} else if r.stable[u] < 2 {
		r.stable[u]++
	}
	if r.stable[u] < 2 {
		jitter := sim.Time(sim.SplitMix64(&r.rngs[u])%1024) / 1024 * compactStabilizeEvery
		sc.Send(compactStabilizeEvery+jitter, sim.Msg{Src: uint32(u), Dst: uint32(u), Kind: cmTimer})
	} else {
		sc.Journal(cjStable, uint32(u), uint32(keep), 0)
	}
}

// addCandidate appends c to the pool unless it is invalid, the owner
// itself, an ephemeral (ephemerals cannot serve as successors, §2.2),
// or already present. Returns the new pool size.
func (r *CompactRing) addCandidate(pool []ident.Handle, n int, owner, c ident.Handle) int {
	if c == ident.NoHandle || c == owner || int(c) >= r.members {
		return n
	}
	for i := 0; i < n; i++ {
		if pool[i] == c {
			return n
		}
	}
	pool[n] = c
	return n + 1
}

// --- pointer cache over handles -------------------------------------------

// bucketOf returns id's bucket, its top 32 - shift bits.
func (r *CompactRing) bucketOf(c *compactCache, id ident.ID) int {
	return int(binary.BigEndian.Uint32(id[:4]) >> c.shift)
}

// keyOf returns id's search key, the 32 bits below its bucket bits.
func (c *compactCache) keyOf(id ident.ID) uint32 {
	return uint32(binary.BigEndian.Uint64(id[:8]) << (32 - c.shift) >> 32)
}

// capFor[n] is the capacity of a slice appended to one slot at a time.
var capFor = func() (caps [cacheBucketTarget + 1]int) {
	var s []cacheSlot
	for n := 1; n <= cacheBucketTarget; n++ {
		s = append(s, cacheSlot{})
		caps[n] = cap(s)
	}
	return caps
}()

// startBuild begins a newest-first build (then takeOlder, finishBuild):
// one slab per router, each bucket an empty run at the start of its own
// capFor[bucketCap] stretch.
func (c *compactCache) startBuild() {
	stride := capFor[c.bucketCap]
	c.slots = make([]cacheSlot, len(c.buckets)*stride)
	for b := range c.buckets {
		c.buckets[b] = uint32(b*stride) << spanLenBits
	}
}

// takeOlder offers list's deposits, last to first, as the next-older
// ones. LRU leaves a bucket its bucketCap most recent distinct handles,
// so a handle is kept, with its key, if its bucket has room and lacks
// it; once all are full, the rest are dropped unread.
func (r *CompactRing) takeOlder(c *compactCache, list []ident.Handle) {
	full := len(c.buckets) * c.bucketCap
	for i := len(list) - 1; i >= 0 && c.size < full; i-- {
		h := list[i]
		id := r.ids[h]
		b := r.bucketOf(c, id)
		off, n := span(c.buckets[b])
		if n == c.bucketCap || slices.ContainsFunc(c.slots[off:off+n], func(s cacheSlot) bool { return s.h == h }) {
			continue
		}
		c.slots[off+n] = cacheSlot{h: h, key: c.keyOf(id)}
		c.buckets[b]++
		c.size++
	}
}

// finishBuild sorts each bucket and charges one of n slots capFor[n]. A
// cache over an eighth empty moves to a slab of exactly those
// capacities; a fuller one keeps its slab, the spare slots of its few
// short buckets held but not charged.
func (r *CompactRing) finishBuild(c *compactCache) {
	need := 0
	for _, w := range c.buckets {
		off, n := span(w)
		r.finishBucket(c.slots[off : off+n])
		need += capFor[n]
	}
	if held := len(c.slots); (held-need)*8 <= held {
		return
	}
	slab := make([]cacheSlot, need)
	at := 0
	for b, w := range c.buckets {
		off, n := span(w)
		copy(slab[at:], c.slots[off:off+n])
		c.buckets[b] = uint32(at)<<spanLenBits | uint32(n)
		at += capFor[n]
	}
	c.slots = slab
}

// finishBucket insertion-sorts a bucket by slot key, comparing full IDs
// only when keys tie.
func (r *CompactRing) finishBucket(bkt []cacheSlot) {
	for i := 1; i < len(bkt); i++ {
		for j := i; j > 0 && (bkt[j].key < bkt[j-1].key || bkt[j].key == bkt[j-1].key && r.ids[bkt[j].h].Less(r.ids[bkt[j-1].h])); j-- {
			bkt[j], bkt[j-1] = bkt[j-1], bkt[j]
		}
	}
}

// testHookKeyTie, when set, is called each time a lookup in dst's own
// bucket reads a full ID because a slot's key equals dst's (tests only).
var testHookKeyTie func()

// cacheFloor returns the cached member closest to dst without
// overshooting the current position: the largest cached ID at or below
// dst, circularly. dstH is dst's handle when dst is interned (else
// NoHandle), so a slot holding dst itself needs no ID read. In dst's own
// bucket it compares keys and reads a slot's full ID only when the key
// ties dst's. Used by measurement probes (serial).
func (r *CompactRing) cacheFloor(router uint32, pos, dst ident.ID, dstH ident.Handle) (ident.Handle, bool) {
	c := &r.caches[router]
	if c.size == 0 {
		return ident.NoHandle, false
	}
	b, k := r.bucketOf(c, dst), c.keyOf(dst)
	off, n := span(c.buckets[b])
	bkt := c.slots[off : off+n]
	i := n
	for i > 0 && bkt[i-1].key > k {
		i--
	}
	for i > 0 && bkt[i-1].key == k && bkt[i-1].h != dstH {
		if testHookKeyTie != nil {
			testHookKeyTie()
		}
		if !dst.Less(r.ids[bkt[i-1].h]) {
			break
		}
		i--
	}
	// Every slot of dst's bucket above dst: take the last slot of the
	// next nonempty bucket counter-clockwise, at worst dst's own again.
	for step := 1; i == 0; step++ {
		off, n := span(c.buckets[(b-step)&(len(c.buckets)-1)])
		bkt, i = c.slots[off:off+n], n
	}
	cand := bkt[i-1].h
	if !ident.Progress(pos, dst, r.ids[cand]) {
		return ident.NoHandle, false
	}
	return cand, true
}

// --- measurement probes (serial, post-convergence) ------------------------

// ProbeResult reports one greedy measurement walk.
type ProbeResult struct {
	Delivered bool
	Parked    bool // delivered over a parked source route (ephemeral)
	RingSteps int  // greedy waypoints taken
	PhysHops  int  // physical links traversed
	Latency   float64
	Stretch   float64 // traversed / direct latency (>= 1 when delivered)
}

// Probe greedily routes a data packet from member `from` toward dst —
// successor pointers and the transit routers' handle caches supply the
// candidates, exactly Algorithm 2 over compact state — and reports path
// cost and stretch. Ephemeral destinations deliver over their
// predecessor's packed source route.
func (r *CompactRing) Probe(from ident.Handle, dst ident.ID) (ProbeResult, error) {
	t, resident := r.intern.Lookup(dst)
	if !resident {
		t = ident.NoHandle
	}
	res := ProbeResult{}
	pos := from
	cur := r.router[from]
	for ttl := compactTTL; ttl > 0; ttl-- {
		if resident && int(t) < r.members && r.router[t] == cur {
			res.Delivered = true
			r.finishProbe(&res, from, t)
			return res, nil
		}
		best, ok := r.selectCompact(pos, cur, dst, t)
		if !ok {
			// Stuck: pos is dst's ring predecessor. An ephemeral
			// destination is parked here with a source route.
			if resident && int(t) >= r.members {
				for e := r.parkedHead[pos]; e >= 0; e = r.parkedNext[e] {
					if r.parkedChild[e] != t {
						continue
					}
					res.PhysHops += int(r.routeLen[e]) - 1
					res.Latency += float64(r.routeLat[e])
					res.Delivered, res.Parked = true, true
					r.finishProbe(&res, from, t)
					return res, nil
				}
			}
			return res, nil
		}
		nr := r.router[best]
		res.RingSteps++
		res.PhysHops += int(r.hopM[int(cur)*r.nrouters+int(nr)])
		res.Latency += float64(r.latM[int(cur)*r.nrouters+int(nr)])
		pos, cur = best, nr
	}
	return res, errTTLExceeded
}

// finishProbe computes stretch against the direct physical latency and
// samples it.
func (r *CompactRing) finishProbe(res *ProbeResult, from, to ident.Handle) {
	direct := float64(r.latM[int(r.router[from])*r.nrouters+int(r.router[to])])
	if direct <= 0 || res.Latency <= direct {
		res.Stretch = 1
	} else {
		res.Stretch = res.Latency / direct
	}
	r.probeMx.Sample(SampleCompactStretch, res.Stretch)
}

// selectCompact picks the known candidate closest to dst (whose handle
// is dstH, or NoHandle) without overshooting: the position's successor
// group and predecessor, then the current router's cache (cache wins
// only when strictly closer — ring pointers are scanned first and ties
// keep the incumbent).
func (r *CompactRing) selectCompact(pos ident.Handle, cur uint32, dst ident.ID, dstH ident.Handle) (ident.Handle, bool) {
	posID := r.ids[pos]
	best := ident.NoHandle
	sel := ident.NewScan(posID, dst)
	consider := func(c ident.Handle) {
		if c != ident.NoHandle && sel.Offer(r.ids[c]) {
			best = c
		}
	}
	base := int(pos) * r.cfg.SuccessorGroup
	for k := 0; k < int(r.nsucc[pos]); k++ {
		consider(r.succs[base+k])
	}
	consider(r.pred[pos])
	if ch, ok := r.cacheFloor(cur, posID, dst, dstH); ok {
		r.probeMx.Count(CtrCompactCacheHit, 1)
		consider(ch)
	} else {
		r.probeMx.Count(CtrCompactCacheMiss, 1)
	}
	return best, best != ident.NoHandle
}

// ProbeJoin measures the control cost of splicing a fresh identifier
// into the converged ring from gateway member `from`, without mutating
// it: the predecessor walk plus the reply/notify/ack legs of Algorithm
// 1. Returns total physical messages.
func (r *CompactRing) ProbeJoin(from ident.Handle, joining ident.ID) (int, error) {
	pos := from
	cur := r.router[from]
	msgs := 0
	for ttl := compactTTL; ttl > 0; ttl-- {
		best, ok := r.selectCompact(pos, cur, joining, ident.NoHandle)
		if !ok {
			// pos is the joining ID's predecessor; complete the splice
			// legs: reply to the gateway, notify pos's successor, ack.
			g := int(r.router[from])
			p := int(r.router[pos])
			msgs += int(r.hopM[p*r.nrouters+g])
			if r.nsucc[pos] > 0 {
				s0 := r.succs[int(pos)*r.cfg.SuccessorGroup]
				sr := int(r.router[s0])
				msgs += int(r.hopM[p*r.nrouters+sr])
				msgs += int(r.hopM[sr*r.nrouters+g])
			}
			r.probeMx.Sample(SampleCompactJoinMsgs, float64(msgs))
			return msgs, nil
		}
		nr := r.router[best]
		msgs += int(r.hopM[int(cur)*r.nrouters+int(nr)])
		pos, cur = best, nr
	}
	return msgs, errTTLExceeded
}

// --- accessors, accounting, journal ---------------------------------------

// Members returns the number of stable ring members.
func (r *CompactRing) Members() int { return r.members }

// Ephemerals returns the number of parked ephemeral hosts.
func (r *CompactRing) Ephemerals() int { return len(r.parkedChild) }

// IDOf resolves a handle to its identifier.
func (r *CompactRing) IDOf(h ident.Handle) ident.ID { return r.ids[h] }

// RouterOf returns the hosting router of a handle.
func (r *CompactRing) RouterOf(h ident.Handle) topology.NodeID {
	return topology.NodeID(r.router[h])
}

// Succ returns member h's k-th successor handle (NoHandle past nsucc).
func (r *CompactRing) Succ(h ident.Handle, k int) ident.Handle {
	if k >= int(r.nsucc[h]) {
		return ident.NoHandle
	}
	return r.succs[int(h)*r.cfg.SuccessorGroup+k]
}

// NumSucc returns the size of member h's successor group.
func (r *CompactRing) NumSucc(h ident.Handle) int { return int(r.nsucc[h]) }

// Pred returns member h's predecessor handle.
func (r *CompactRing) Pred(h ident.Handle) ident.Handle { return r.pred[h] }

// Check holds the members' ring pointers to sorted identifier order:
// ident.CheckRing over the successor slab and predecessors.
func (r *CompactRing) Check() (exact int, err error) {
	s := r.cfg.SuccessorGroup
	return ident.CheckRing(r.members, s, func(i int) ident.Handle { return ident.Handle(i) }, r.IDOf,
		func(i int) []ident.Handle { return r.succs[i*s : i*s+int(r.nsucc[i])] },
		func(i int) (ident.Handle, bool) { return r.pred[i], r.pred[i] != ident.NoHandle })
}

// Metrics returns the merged convergence-phase metrics (valid after
// Run).
func (r *CompactRing) Metrics() sim.Metrics { return r.msgs }

// ProbeMetrics returns the measurement-phase sink (stretch samples,
// cache hit/miss counters, join-cost samples).
func (r *CompactRing) ProbeMetrics() sim.Metrics { return r.probeMx }

// Footprint itemizes resident memory by subsystem, in bytes. Slab
// capacities are charged (what the process actually holds), and the
// intern table is charged once — the whole point of storing 4-byte
// handles everywhere else.
type Footprint struct {
	Hosts      int // members + ephemerals
	RingState  int // successor/predecessor/router/flag slabs
	Parked     int // parked entries + packed source routes
	Caches     int // per-router bucketed caches (live slots)
	Intern     int // ID slab + reverse map
	RNG        int // per-node jitter states
	CacheSlots int // live cache entries across all routers
}

// Total sums every accounted subsystem.
func (f Footprint) Total() int {
	return f.RingState + f.Parked + f.Caches + f.Intern + f.RNG
}

// RingBytesPerHost is the per-member routing-state cost — the Fig 6c
// quantity the scaling study tracks against N.
func (f Footprint) RingBytesPerHost(members int) float64 {
	if members == 0 {
		return 0
	}
	return float64(f.RingState) / float64(members)
}

// Footprint measures the ring's current memory by subsystem.
func (r *CompactRing) Footprint() Footprint {
	f := Footprint{Hosts: len(r.ids)}
	f.RingState = cap(r.succs)*4 + cap(r.nsucc) + cap(r.pred)*4 + cap(r.router)*4 + cap(r.stable)
	f.Parked = cap(r.parkedHead)*4 + cap(r.parkedNext)*4 + cap(r.parkedChild)*4 +
		cap(r.routeOff)*4 + cap(r.routeLen)*2 + cap(r.routeLat)*4 + cap(r.routeSlab)*2
	for i := range r.caches {
		c := &r.caches[i]
		f.CacheSlots += c.size
		for _, w := range c.buckets {
			_, n := span(w)
			f.Caches += capFor[n] * 8
		}
	}
	f.Intern = r.intern.Bytes()
	f.RNG = cap(r.rngs) * 8
	return f
}
