// Package vring implements ROFL's intradomain design (paper §3): every
// host identifier is resident at a hosting router as a virtual node;
// virtual nodes splice themselves into a circular namespace ring with
// successor-group and predecessor pointers; packets are forwarded
// greedily to the closest known identifier that does not overshoot the
// destination (Algorithm 2), consulting resident state first and a
// bounded pointer cache second; and failures — host, router, link,
// partition — are repaired with teardowns, failover and zero-node driven
// ring merging (§3.2).
//
// Two ring implementations share that design. Network (network.go) is
// the full-fidelity simulator behind the paper's figures: per-node heap
// objects, rich failure machinery, journaled repairs. CompactRing
// (compact.go) is the million-host variant: interned uint32 handles,
// struct-of-arrays state, slab-allocated events on sim.ShardedEngine —
// ~22 bytes of ring state per member, converging 1M hosts on one
// machine. SCALING.md documents the scaling study built on it.
package vring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"rofl/internal/ident"
	"rofl/internal/linkstate"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// Metrics counter names charged by this package. One control message
// traversing k physical links counts k (paper §6.1 methodology).
const (
	msgBootstrap = "vring-bootstrap"
	MsgJoin      = "vring-join"
	msgData      = "vring-data"
	MsgTeardown  = "vring-teardown"
	MsgRepair    = "vring-repair"
)

// routeTTL bounds forwarding hops per packet.
const routeTTL = 1024

// Options tunes the protocol knobs the paper evaluates.
type Options struct {
	// SuccessorGroup is the number of successors each virtual node keeps
	// ("nodes can hold multiple successors ... successor-groups", §2.2).
	SuccessorGroup int
	// CacheCapacity bounds each router's pointer cache (Fig 6a sweeps
	// this); 0 disables caching.
	CacheCapacity int
	// CacheControl enables filling caches from control traffic — the
	// paper's default ("we fill pointer caches only with contents
	// available from control packets", §6.1).
	CacheControl bool
	// SnoopData additionally fills caches from delivered data packets —
	// off in the paper's runs; exposed for the ablation benches.
	SnoopData bool
	// Seed has no effect: no code reads it. It stays only because the
	// repository benchmark assigns it.
	Seed int64
}

// DefaultOptions mirrors the paper's simulation defaults.
func DefaultOptions() Options {
	return Options{
		SuccessorGroup: 3,
		CacheCapacity:  70000, // ≈9 Mbit of 128-bit IDs (§6.2)
		CacheControl:   true,
		SnoopData:      false,
	}
}

// VirtualNode holds the routing state a hosting router maintains for one
// resident identifier (§3.1: "spawns a virtual node that will hold the
// routing state with respect to this host's identifier").
type VirtualNode struct {
	ID        ident.ID
	Router    RouterID
	Ephemeral bool
	Default   bool // the router's own default virtual node (§3.1)

	// Succs is the successor group: Succs[0] is the immediate internal
	// successor, the rest are fallbacks for failure resilience.
	Succs []Pointer
	// Pred is the predecessor pointer.
	Pred Pointer
	// Succs and Pred are read-only outside this package: inside it every
	// write goes through Router.setRing, which keeps the hosting router's
	// bounds, and so selectNextHop, exact.
}

// Succ returns the immediate successor pointer and whether one exists.
func (v *VirtualNode) Succ() (Pointer, bool) {
	if len(v.Succs) == 0 {
		return Pointer{}, false
	}
	return v.Succs[0], true
}

// Router is one physical router: its resident virtual nodes and the
// ephemerals parked at them, each in a table ascending by identifier,
// a bounded pointer cache, and two bounds on its residents' ring
// pointer spans.
type Router struct {
	Node RouterID
	ID   ident.ID // router-ID; doubles as the default virtual node's ID
	// VNs is the residents keyed by their IDs, which a search reads as
	// ID-word columns without loading a virtual node.
	VNs ident.Columns[*VirtualNode]
	// parked holds, once each and ascending by ID, the ephemerals whose
	// ring predecessor is resident here and keeps a source route to them
	// (§2.2 "Ephemeral hosts").
	parked []parking
	Cache  *PointerCache
	// reach is at least the clockwise distance from any stable resident to
	// any of its successors, and back at least the distance from any
	// resident's predecessor to that resident. Both only grow (setRing), so
	// they hold in every state, consistent ring or not; window reads them.
	reach, back ident.ID
}

// setRing writes resident vn's ring pointers and raises the router's
// bounds to cover them. It is the only writer of Succs and Pred.
func (r *Router) setRing(vn *VirtualNode, succs []Pointer, pred Pointer) {
	vn.Succs, vn.Pred = succs, pred
	for _, s := range vn.Succs {
		if !ident.Within(vn.ID, s.ID, r.reach) {
			r.reach = vn.ID.Distance(s.ID)
		}
	}
	if vn.Pred != (Pointer{}) && !ident.Within(vn.Pred.ID, vn.ID, r.back) {
		r.back = vn.Pred.ID.Distance(vn.ID)
	}
}

// parking is one parked ephemeral and the resident it is parked at.
type parking struct {
	Pointer
	parent ident.ID
}

// testHookResidentSearch, nil outside tests, sees each search of a
// router's residents.
var testHookResidentSearch func()

// find returns the index of the last resident at or below the
// identifier k decodes, -1 if there is none, and whether it is that one.
func (r *Router) find(k ident.Key) (int, bool) {
	if testHookResidentSearch != nil {
		testHookResidentSearch()
	}
	return r.VNs.Find(k)
}

// Resident returns the virtual node of id if id is resident here, else nil.
func (r *Router) Resident(id ident.ID) *VirtualNode {
	if i, ok := r.find(id.Key()); ok {
		return *r.VNs.Val(i)
	}
	return nil
}

// parkedAt returns the index of id's parking here, or where it belongs,
// and whether id is parked here.
func (r *Router) parkedAt(id ident.ID) (int, bool) {
	i := ident.Search(len(r.parked), func(k int) *ident.ID { return &r.parked[k].ID }, id)
	return i, i < len(r.parked) && r.parked[i].ID == id
}

// park parks child at the resident parent, in place of any parking of
// child here, and reports whether the table changed.
func (r *Router) park(parent ident.ID, child Pointer) bool {
	e := parking{child, parent}
	i, ok := r.parkedAt(child.ID)
	if !ok {
		r.parked = slices.Insert(r.parked, i, e)
		return true
	}
	changed := r.parked[i] != e
	r.parked[i] = e
	return changed
}

// unpark deletes the parkings drop selects and returns them.
func (r *Router) unpark(drop func(parking) bool) []parking {
	var out []parking
	kept := r.parked[:0]
	for _, e := range r.parked {
		if drop(e) {
			out = append(out, e)
		} else {
			kept = append(kept, e)
		}
	}
	r.parked = kept
	return out
}

// MemoryEntries counts the routing-state entries this router holds —
// the paper's Fig 6c metric: ring pointers of resident virtual nodes,
// parked routes, plus cached pointers.
func (r *Router) MemoryEntries() int {
	n := r.Cache.Len() + len(r.parked)
	for _, vn := range r.VNs.All() {
		n += len(vn.Succs)
		if vn.Pred != (Pointer{}) {
			n++
		}
	}
	return n
}

// Network is one AS running intradomain ROFL over a router topology.
type Network struct {
	LS      *linkstate.Map
	Metrics sim.Metrics
	Routers []*Router

	opts Options

	// hostedAt is the experimenter's oracle — used only to compute
	// stretch denominators and to verify invariants, never consulted by
	// the protocol itself.
	hostedAt map[ident.ID]RouterID

	// traversals counts data-packet transits per router (Fig 6b).
	traversals []int64

	// failover is the pre-agreed router order used when a hosting router
	// dies (§3.2: "routers in advance agree on a sorted list of routers
	// that will be failed over to").
	failover []RouterID
}

// Errors returned by Network operations.
var (
	errDuplicateID   = errors.New("vring: identifier already resident")
	errUnknownID     = errors.New("vring: identifier not resident anywhere")
	errRouterDown    = errors.New("vring: router is down")
	ErrNoRoute       = errors.New("vring: greedy routing could not deliver")
	errTTLExceeded   = errors.New("vring: TTL exceeded")
	errNotReachable  = errors.New("vring: destination not reachable in this partition")
	errRingCorrupted = errors.New("vring: ring invariant violated")
)

// New constructs a network over g: one router per topology node, each
// bootstrapping a default virtual node into a ring of router-IDs. The
// bootstrap flood each default virtual node performs (§3.1) is charged
// to the msgBootstrap counter; the resulting ring is built directly
// since the paper treats construction as a one-time cost.
func New(g *topology.Graph, m sim.Metrics, opts Options) *Network {
	if opts.SuccessorGroup < 1 {
		opts.SuccessorGroup = 1
	}
	n := &Network{
		LS:         linkstate.New(g, m),
		Metrics:    m,
		opts:       opts,
		hostedAt:   make(map[ident.ID]RouterID),
		traversals: make([]int64, g.NumNodes()),
	}
	n.Routers = make([]*Router, g.NumNodes())
	for i := range n.Routers {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(i))
		rid := ident.FromBytes(append([]byte("router"), b[:]...))
		n.Routers[i] = &Router{Node: RouterID(i), ID: rid, Cache: NewPointerCache(opts.CacheCapacity)}
		n.Routers[i].VNs.Insert(0, rid, &VirtualNode{ID: rid, Router: RouterID(i), Default: true})
	}
	// Default virtual nodes join by flooding (§3.1); charge one flood
	// per router and build the converged ring directly.
	m.Count(msgBootstrap, int64(2*g.NumEdges()*g.NumNodes()))
	members := make([]Pointer, 0, len(n.Routers))
	for _, r := range n.Routers {
		n.hostedAt[r.ID] = r.Node
		members = append(members, Pointer{ID: r.ID, Router: r.Node})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].ID.Less(members[j].ID) })
	for i, p := range members {
		r := n.Routers[p.Router]
		var succs []Pointer
		for k := 1; k <= opts.SuccessorGroup && k < len(members); k++ {
			succs = append(succs, members[(i+k)%len(members)])
		}
		r.setRing(*r.VNs.Val(0), succs, members[(i-1+len(members))%len(members)])
	}
	// Failover order: routers sorted by router-ID (pre-agreed and
	// deterministic).
	n.failover = make([]RouterID, len(members))
	for i, p := range members {
		n.failover[i] = p.Router
	}
	return n
}

// HostingRouter returns where id is resident (oracle; for verification
// and stretch denominators).
func (n *Network) HostingRouter(id ident.ID) (RouterID, bool) {
	r, ok := n.hostedAt[id]
	return r, ok
}

// Traversals returns per-router data-packet transit counts (Fig 6b).
func (n *Network) Traversals() []int64 { return n.traversals }

// --- Greedy forwarding (Algorithm 2) -------------------------------------

// hop moves a message from router a to router b over current shortest
// paths, charging counter and recording cache fills, and traversals when
// counter is msgData (Fig 6b counts data packets only). Returns physical
// hop count and latency, or ok=false if unreachable. It climbs the
// a-rooted tree from b without building the path: each router on it has
// its own counter and cache, so the order changes nothing.
func (n *Network) hop(a, b RouterID, counter string, learn []Pointer) (int, float64, bool) {
	if a == b {
		return 0, 0, true
	}
	hops := n.LS.Hops(a, b)
	if hops < 0 {
		return 0, 0, false
	}
	n.Metrics.Count(counter, int64(hops))
	lat := n.LS.Latency(a, b)
	parent := n.LS.Parents(a)
	data := counter == msgData
	for node := b; node != a; node = parent[node] {
		if data {
			n.traversals[node]++
		}
		if learn != nil {
			for _, p := range learn {
				n.Routers[node].Cache.Insert(p)
			}
		}
	}
	return hops, lat, true
}

// Outcome reports where greedy routing ended up.
type Outcome struct {
	Delivered bool
	VN        *VirtualNode // delivered-to virtual node (nil if stuck)
	Final     RouterID     // router where routing ended
	FinalPos  ident.ID     // ring position at termination (the stuck VN's ID)
	StuckVN   *VirtualNode // the VN routing got stuck at (the dst's predecessor)
	Msgs      int
	Latency   float64
	// Path is the ordered sequence of physical routers the packet
	// traversed, inclusive of the origin — multicast path-painting (§5.2)
	// installs tree pointers along it. Only RouteMatch records it.
	Path []RouterID
}

// Accept decides delivery at a router: it returns the virtual node the
// packet is delivered to, if any. The default accept matches the exact
// destination identifier (resident or parked); anycast supplies a
// group-membership predicate instead (§5.2).
type Accept func(r *Router) (*VirtualNode, bool)

// greedy routes a message from router `from` toward dst, implementing
// Algorithm 2: at each router pick the closest identifier to dst that
// does not overshoot it, among resident virtual nodes, their ring
// pointers, parked ephemerals and the pointer cache (ring state takes
// precedence on ties by being scanned first). The packet's current ring
// position advances monotonically toward dst, which with the
// no-overshoot rule makes forwarding loop-free. A non-nil accept delivers
// where it matches; a non-nil path, which starts with from, records the
// routers the walk traverses. Like hop, a msgData walk counts traversals.
func (n *Network) greedy(from RouterID, dst ident.ID, counter string, learn []Pointer, accept Accept, path []RouterID, avoid ...ident.ID) (Outcome, error) {
	if !n.LS.NodeUp(from) {
		return Outcome{}, errRouterDown
	}
	out := Outcome{Final: from, Path: path}
	cur := from
	pos := n.Routers[from].ID
	posRouter := from
	// Pointers observed broken this routing attempt, seeded with avoid: a
	// join's lookup must not chase the cache pointers it plants for the
	// not-yet-resident joining identifier. The capacity is clipped so an
	// append copies instead of writing into the caller's slice.
	stale := staleSet(avoid[:len(avoid):len(avoid)])
	// The pointer the packet is currently heading for; re-evaluated at
	// every transit router and replaced whenever a strictly closer
	// identifier is known locally.
	var target Pointer
	var targetVN *VirtualNode
	haveTarget := false
	key := dst.Key() // decoded once for every router's resident search
	data := counter == msgData
	// The walk's single-link moves, charged to counter once it returns.
	links := 0
	defer func() {
		if links > 0 {
			n.Metrics.Count(counter, int64(links))
		}
	}()
	for ttl := routeTTL; ttl > 0; ttl-- {
		r := n.Routers[cur]
		if accept != nil {
			if vn, ok := accept(r); ok {
				out.Delivered, out.VN, out.Final, out.FinalPos = true, vn, cur, vn.ID
				return out, nil
			}
		}
		// Deliver: destination resident here, or parked here as an
		// ephemeral child of a resident node. dst's floor among the
		// residents is also where selection's window starts.
		f, here := r.find(key)
		if here {
			out.Delivered, out.VN, out.Final, out.FinalPos = true, *r.VNs.Val(f), cur, dst
			return out, nil
		}
		if i, ok := r.parkedAt(dst); ok {
			p := r.parked[i]
			h, lat, up := n.hop(cur, p.Router, counter, learn)
			if up {
				out.Msgs += h
				out.Latency += lat
				if out.Path != nil {
					out.Path = n.LS.AppendPath(out.Path, cur, p.Router)
				}
				vn := n.Routers[p.Router].Resident(dst)
				out.Delivered, out.VN, out.Final, out.FinalPos = true, vn, p.Router, dst
				return out, nil
			}
			stale = stale.add(dst)
		}

		// Re-run Algorithm 2's selection at *every* router the packet
		// transits — intermediate routers with richer caches re-aim the
		// packet toward strictly closer identifiers, which is what pulls
		// stretch toward 1 as caches grow (§3.3, Fig 6a).
		best, bestVN, ok := n.selectNextHop(r, pos, dst, f, stale)
		if testHookSelect != nil {
			// A copy: handing the hook stale itself would put it on the heap.
			testHookSelect(r, pos, dst, slices.Clone(stale), best, bestVN, ok)
		}
		if ok && best.Router == cur {
			// Advance position locally at no cost — but only onto a ring
			// member: a cached pointer may name an ephemeral resident,
			// which has no onward ring state (§2.2) and must not become
			// the packet's position.
			if vnB := r.Resident(best.ID); vnB != nil && !vnB.Ephemeral {
				pos = best.ID
				posRouter = cur
				continue
			}
			stale = stale.add(best.ID)
			continue
		}
		if ok {
			if !haveTarget || ident.Closer(dst, best.ID, target.ID) {
				target, targetVN, haveTarget = best, bestVN, true
			}
		}
		if !haveTarget {
			// No local candidate progresses. The stuck verdict ("pos is
			// dst's predecessor") is only sound at pos's own router,
			// where pos's successor pointers live; if a stale pointer
			// left us elsewhere, backtrack to the position's router and
			// re-select there.
			if cur != posRouter {
				h, lat, up := n.hop(cur, posRouter, counter, learn)
				if up {
					out.Msgs += h
					out.Latency += lat
					if out.Path != nil {
						out.Path = n.LS.AppendPath(out.Path, cur, posRouter)
					}
					cur = posRouter
					out.Final = cur
					continue
				}
			}
			out.Final, out.FinalPos = cur, pos
			out.StuckVN = r.Resident(pos)
			return out, nil
		}
		if target.Router == cur {
			// Arrived at the target's router: confirm a ring-member
			// resident and advance the position; tolerate staleness
			// during churn. Ephemeral residents are delivery endpoints,
			// never positions (§2.2).
			if vnT := r.Resident(target.ID); vnT != nil && !vnT.Ephemeral {
				pos = target.ID
				posRouter = cur
			} else {
				stale = stale.add(target.ID)
				if targetVN == nil {
					r.Cache.Remove(target.ID)
				}
			}
			haveTarget = false
			continue
		}
		next, okHop := n.LS.NextHop(cur, target.Router)
		if !okHop {
			// Target unreachable in the current failure state.
			stale = stale.add(target.ID)
			r.Cache.Remove(target.ID)
			haveTarget = false
			continue
		}
		// Move one physical hop toward the current target.
		links++
		out.Msgs++
		if w, okW := n.LS.Graph().EdgeWeight(cur, next); okW {
			out.Latency += w
		}
		if data {
			n.traversals[next]++
		}
		for _, p := range learn {
			n.Routers[next].Cache.Insert(p)
		}
		if out.Path != nil {
			out.Path = append(out.Path, next)
		}
		cur = next
		out.Final = cur
	}
	return out, errTTLExceeded
}

// staleSet is the identifiers one routing attempt must not select. It
// holds the avoid list plus what the walk finds broken — none on a
// healthy route, one on a join — and every candidate at every router is
// tested against it, so it is a slice scanned in place: hashing a
// 16-byte key per candidate cost more than the selection itself.
type staleSet []ident.ID

func (s staleSet) has(id ident.ID) bool { return slices.Contains(s, id) }

// add returns s with id in it. It returns the set rather than write
// through a pointer, which would put every walk's avoid list on the heap.
func (s staleSet) add(id ident.ID) staleSet {
	if s.has(id) {
		return s
	}
	return append(s, id)
}

// learnControl gates the pointers control messages deposit in caches
// along their path on the CacheControl option.
func (n *Network) learnControl(learn []Pointer) []Pointer {
	if !n.opts.CacheControl {
		return nil
	}
	return learn
}

// testHookSelect, nil outside tests, sees each selectNextHop decision the
// greedy walk makes, with its inputs, so a test can hold it to the
// exhaustive scan.
var testHookSelect func(r *Router, pos, dst ident.ID, stale staleSet, got Pointer, gotVN *VirtualNode, ok bool)

// selectNextHop scans the router's state for the candidate closest to
// dst without overshooting pos→dst, given f, dst's floor among the
// residents. Residents are scanned in identifier order, and ring
// pointers before the cache so they win ties (pointer precedence, §2.2);
// only the residents of window are read, which hold the winner and every
// tie with it. Returns the chosen pointer and the resident VN it came
// from (nil if from the cache).
func (n *Network) selectNextHop(r *Router, pos, dst ident.ID, f int, stale staleSet) (Pointer, *VirtualNode, bool) {
	var best Pointer
	var bestVN *VirtualNode
	sel := ident.NewScan(pos, dst)
	// The test is written out per site: a helper closing over sel keeps it
	// in memory, a fifth of a join. stale is asked only of would-be winners.
	for _, run := range r.window(pos, dst, f, stale) {
		for k := run[0]; k < run[1]; k++ {
			vn := *r.VNs.Val(k)
			// Ephemeral hosts "cannot serve as successor or predecessor to
			// other IDs" (§2.2): they carry no ring pointers, so using one as
			// a greedy waypoint would strand the packet — and a join lookup
			// stuck at one would splice the ring at the wrong predecessor.
			// Exact-match delivery to them is handled before selection.
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
	}
	// Offered last, the cache beats ring state only when strictly closer
	// (precedence).
	if p, ok := r.Cache.Lookup(pos, dst); ok && sel.Beats(p.ID) && !stale.has(p.ID) && sel.Offer(p.ID) {
		best, bestVN = p, nil
	}
	_, found := sel.Best()
	return best, bestVN, found
}

// window returns the residents whose pointers can win selectNextHop's
// scan, as at most two index ranges [lo, hi) of r.VNs that together
// ascend; f is dst's floor among the residents.
// Let b0 be the legal resident (in (pos, dst]) closest to dst that is
// neither ephemeral nor stale, or pos if there is none: the winner, and
// every tie with it, is no farther from dst than b0. A resident's
// successors lie within reach after it, so a resident holding such a
// successor is at most reach farther from dst than b0; its predecessor
// lies within back before it, so a resident holding such a predecessor
// is no farther from dst than b0, or within back past dst. Walking back
// from dst's floor and forward past it reads exactly those residents.
// Nothing here assumes a consistent ring.
func (r *Router) window(pos, dst ident.ID, f int, stale staleSet) (runs [2][2]int) {
	n := r.VNs.Len()
	if n == 0 {
		return runs
	}
	// at(k) is the k-th resident back from dst's floor, wrapping: distance
	// to dst ascends with k, and at(-1) is the first one past dst.
	f += n
	at := func(k int) *VirtualNode { return *r.VNs.Val((f - k) % n) }
	b0, nb := pos, 0
	for ; nb < n; nb++ {
		v := at(nb)
		if !ident.Progress(pos, dst, v.ID) {
			break
		}
		if !v.Ephemeral && !stale.has(v.ID) {
			b0 = v.ID
			nb++
			break
		}
	}
	// Past b0, distance to dst exceeds b0's by exactly the distance to b0,
	// so this reads "at most reach farther" with no sum to overflow.
	for nb < n && ident.Within(at(nb).ID, b0, r.reach) {
		nb++
	}
	nf := 0
	for nb+nf < n && ident.Within(dst, at(-1-nf).ID, r.back) {
		nf++
	}
	if nb+nf == n {
		return [2][2]int{{0, n}}
	}
	lo := (f - nb + 1) % n // the run is lo .. hi-1, wrapping
	hi := lo + nb + nf
	if hi <= n {
		return [2][2]int{{lo, hi}}
	}
	return [2][2]int{{0, hi - n}, {lo, n}}
}

// --- Joining (Algorithm 1) ------------------------------------------------

// JoinResult reports the cost of one host join — the quantities Figures
// 5a–5c are built from. It is the join's only record of them; the
// MsgJoin counter keeps the total.
type JoinResult struct {
	VN      *VirtualNode
	Msgs    int
	Latency float64
}

// JoinHost makes id resident at router `at` as a stable host and splices
// it into the ring (join_internal, Algorithm 1): authenticate, locate
// the predecessor by greedy-routing a join request toward id, splice
// successor/predecessor pointers, and notify the successor. Control
// messages deposit pointers to the joining identifier in caches along
// their paths (§3.1 "intermediate routers may cache destination IDs
// contained in the message").
func (n *Network) JoinHost(id ident.ID, at RouterID) (JoinResult, error) {
	return n.join(id, at, false)
}

// JoinEphemeral makes id resident at `at` as an ephemeral host: it only
// establishes state at its ring predecessor (a parked backpointer) and
// never serves as anyone's successor or predecessor (§2.2), roughly
// halving join cost.
func (n *Network) JoinEphemeral(id ident.ID, at RouterID) (JoinResult, error) {
	return n.join(id, at, true)
}

func (n *Network) join(id ident.ID, at RouterID, ephemeral bool) (JoinResult, error) {
	if !n.LS.NodeUp(at) {
		return JoinResult{}, errRouterDown
	}
	if _, dup := n.hostedAt[id]; dup {
		return JoinResult{}, fmt.Errorf("%w: %s", errDuplicateID, id.Short())
	}
	// Authentication (§2.1): host proves key possession to the hosting
	// router over the local attachment link — no network-level messages.

	learn := n.learnControl([]Pointer{{ID: id, Router: at}})
	if ephemeral {
		// Ephemeral identifiers are reached through their predecessor's
		// parked state, never through cached waypoints; keep them out of
		// pointer caches entirely.
		learn = nil
	}
	out, err := n.greedy(at, id, MsgJoin, learn, nil, nil, id)
	if err != nil {
		return JoinResult{}, fmt.Errorf("locating predecessor of %s: %w", id.Short(), err)
	}
	if out.Delivered {
		return JoinResult{}, fmt.Errorf("%w: %s", errDuplicateID, id.Short())
	}
	pred := out.StuckVN
	if pred == nil {
		return JoinResult{}, fmt.Errorf("%w: no predecessor found for %s", errRingCorrupted, id.Short())
	}
	msgs := out.Msgs
	latency := out.Latency

	// Predecessor replies to the gateway with the successor set.
	replyLearn := n.learnControl([]Pointer{{ID: pred.ID, Router: pred.Router}})
	h2, l2, up := n.hop(pred.Router, at, MsgJoin, replyLearn)
	if !up {
		return JoinResult{}, errNotReachable
	}
	msgs += h2

	vn := &VirtualNode{ID: id, Router: at, Ephemeral: ephemeral}
	self := Pointer{ID: id, Router: at}

	r, predRouter := n.Routers[at], n.Routers[pred.Router]
	f, _ := r.find(id.Key())
	r.VNs.Insert(f+1, id, vn)
	n.hostedAt[id] = at
	if ephemeral {
		// Ephemeral hosts only park a backpointer at the predecessor.
		predRouter.park(pred.ID, self)
		latency += l2
		return JoinResult{VN: vn, Msgs: msgs, Latency: latency}, nil
	}

	// Splice: the new node inherits the predecessor's successor group
	// (a lone member holds none, so it is its own successor and the new
	// node's); the predecessor's immediate successor becomes the new node.
	predPtr := Pointer{ID: pred.ID, Router: pred.Router}
	succs := pred.Succs
	if len(succs) == 0 {
		succs = []Pointer{predPtr}
	}
	r.setRing(vn, slices.Clone(succs[:min(len(succs), n.opts.SuccessorGroup)]), predPtr)
	predRouter.setRing(pred, prependGroup(pred.Succs, self, n.opts.SuccessorGroup), pred.Pred)

	// Parked ephemerals in (id, oldSuccessor) now have the new node as
	// their ring predecessor; hand their parking over (§2.2 keeps
	// ephemeral state at the predecessor).
	handed := predRouter.unpark(func(e parking) bool {
		return e.parent == pred.ID && !ident.BetweenOpen(e.ID, pred.ID, id)
	})
	for _, e := range handed {
		r.park(id, e.Pointer)
	}

	// Notify the successor to update its predecessor pointer; the
	// predecessor sends this in parallel with its reply to the gateway,
	// and the successor acks to the gateway (§6.2: joins complete in
	// about a network diameter because messages overlap).
	var l34 float64
	if s, ok := vn.Succ(); ok {
		if svn := n.vnAt(s); svn != nil {
			h3, l3, up3 := n.hop(pred.Router, s.Router, MsgJoin, learn)
			if up3 {
				msgs += h3
				n.Routers[s.Router].setRing(svn, svn.Succs, self)
				h4, l4, up4 := n.hop(s.Router, at, MsgJoin, nil)
				if up4 {
					msgs += h4
				}
				l34 = l3 + l4
			}
		}
	}
	latency += max(l2, l34)
	return JoinResult{VN: vn, Msgs: msgs, Latency: latency}, nil
}

func (n *Network) vnAt(p Pointer) *VirtualNode {
	if p.Router < 0 || int(p.Router) >= len(n.Routers) {
		return nil
	}
	return n.Routers[p.Router].Resident(p.ID)
}

func prependGroup(g []Pointer, p Pointer, max int) []Pointer {
	out := make([]Pointer, 0, max)
	out = append(out, p)
	for _, e := range g {
		if e.ID == p.ID {
			continue
		}
		if len(out) >= max {
			break
		}
		out = append(out, e)
	}
	return out
}

// --- Data routing ----------------------------------------------------------

// RouteResult reports one data packet's fate.
type RouteResult struct {
	Delivered bool
	Hops      int     // physical links traversed
	Shortest  int     // link-state shortest hop count to the hosting router
	Stretch   float64 // traversed latency / shortest-path latency (>= 1)
	Latency   float64
	Final     RouterID
}

// Route forwards a data packet from router `from` toward dst and reports
// the traversed path length and stretch relative to shortest-path
// routing — the paper's primary data-plane metric (§6.1).
func (n *Network) Route(from RouterID, dst ident.ID) (RouteResult, error) {
	host, known := n.hostedAt[dst]
	var learn []Pointer
	if n.opts.SnoopData && known {
		if vn := n.Routers[host].Resident(dst); vn != nil && !vn.Ephemeral {
			learn = []Pointer{{ID: dst, Router: host}}
		}
	}
	out, err := n.greedy(from, dst, msgData, learn, nil, nil)
	if err != nil {
		return RouteResult{}, err
	}
	if !out.Delivered {
		if !known {
			return RouteResult{}, fmt.Errorf("%w: %s", errUnknownID, dst.Short())
		}
		return RouteResult{}, fmt.Errorf("%w: %s stuck at router %d", ErrNoRoute, dst.Short(), out.Final)
	}
	res := RouteResult{
		Delivered: true,
		Hops:      out.Msgs,
		Latency:   out.Latency,
		Final:     out.Final,
	}
	if known {
		res.Shortest = n.LS.Hops(from, host)
		// Stretch compares weighted path lengths so that, by the triangle
		// inequality, it is always >= 1; hop-count ratios can dip below 1
		// when the latency-shortest path is hop-longer.
		direct := n.LS.Latency(from, host)
		if direct <= 0 || res.Latency <= direct {
			res.Stretch = 1
		} else {
			res.Stretch = res.Latency / direct
		}
	}
	return res, nil
}

// Lookup performs a control-plane route toward dst without data-plane
// accounting, returning the router where greedy routing terminates. It
// is the primitive the interdomain layer builds on.
func (n *Network) Lookup(from RouterID, dst ident.ID) (Outcome, error) {
	return n.greedy(from, dst, MsgJoin, nil, nil, nil)
}

// RouteMatch forwards a packet greedily toward dst but delivers at the
// first router where accept matches — the primitive behind anycast
// ("the packet reaching the first server in G for which the packet
// encounters a route", §5.2) and multicast tree painting. Identifiers in
// avoid are never used as forwarding waypoints (a group member probing
// its own group must not terminate at itself).
func (n *Network) RouteMatch(from RouterID, dst ident.ID, accept Accept, avoid ...ident.ID) (Outcome, error) {
	// Room for a typical route's path: ~7 hops, 8 routers, on the
	// benchmark ring.
	return n.greedy(from, dst, msgData, nil, accept, append(make([]RouterID, 0, 8), from), avoid...)
}
