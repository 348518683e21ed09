package canon

import (
	"fmt"
	"slices"

	"rofl/internal/ident"
	"rofl/internal/topology"
)

// RouteResult reports one interdomain packet's fate.
type RouteResult struct {
	Delivered bool
	// ASHops is the number of AS-level links traversed, one data message
	// each (§6.1).
	ASHops int
	// Traversed is the AS-level path, source AS first.
	Traversed []topology.ASN
	// StrictlyIsolated reports that the path stayed within the lowest
	// common subtree the destination's join strategy makes achievable.
	// On tree-shaped hierarchies this always holds (the paper's provable
	// case); on DAGs with multihoming a source cannot locally tell which
	// of its provider cones contains the destination, so this is a
	// diagnostic rate, not an invariant — the invariant ROFL maintains is
	// state-level isolation, verified by CheckIsolationState.
	StrictlyIsolated bool
	// Backtracks counts Bloom-filter false positives that bounced off a
	// peering link.
	Backtracks int
	// FinalAS is where the packet was delivered.
	FinalAS topology.ASN
}

const (
	// routeTTL bounds the forwarding steps of one packet.
	routeTTL = 4096
	// bloomFPRate is the per-filter false-positive target.
	bloomFPRate = 0.01
)

// staleKey marks one pointer unusable at one specific ring level during
// a single routing attempt.
type staleKey struct {
	Ptr  Ptr
	Root Root
}

// staleSet is the (pointer, level) pairs one routing attempt found
// broken — none on a healthy route — so it is a slice scanned in place.
type staleSet []staleKey

func (s staleSet) has(k staleKey) bool { return slices.Contains(s, k) }

func (s *staleSet) add(k staleKey) {
	if !s.has(k) {
		*s = append(*s, k)
	}
}

// testHookSelect, nil outside tests, sees each selectPointer decision
// route makes, with its inputs, so a test can hold it to the exhaustive
// scan.
var testHookSelect func(in *Internet, as *AS, pos, dst ident.ID, stale staleSet, got Ptr, gotRoot Root, ok bool)

// testHookHop, nil outside tests, sees each hop route takes from a
// stored segment rather than a fresh search: the segment's root and
// destination AS, the AS the packet came from, the one it stands at,
// and the hop taken.
var testHookHop func(in *Internet, root Root, to, prev, cur, next topology.ASN)

// segment is the AS path route planned last, toward the AS `to` inside
// root's subtree, with the packet at path[at]. While the target keeps
// that root and AS, the packet follows it instead of searching again
// (DESIGN.md §5): the AS-level source route of the paper's §4.
type segment struct {
	path []topology.ASN
	root Root
	to   topology.ASN
	at   int
}

// plan stores path, a fresh search's result, as the segment from its
// first AS.
func (s *segment) plan(path []topology.ASN, root Root, to topology.ASN) {
	s.path, s.root, s.to, s.at = append(s.path[:0], path...), root, to, 0
}

// next returns the segment's hop from cur, if cur is where the packet
// stands on a segment toward to inside root that goes on from there.
func (s *segment) next(root Root, to, cur topology.ASN) (topology.ASN, bool) {
	if s.root != root || s.to != to || s.at+1 >= len(s.path) || s.path[s.at] != cur {
		return 0, false
	}
	return s.path[s.at+1], true
}

// Route forwards a packet from the joined identifier src toward dst,
// using augmented greedy routing (§2.3): at each AS, among the resident
// virtual nodes' ring pointers and fingers, pick the identifier closest
// to dst without overshooting — always preferring the lowest hierarchy
// level at which progress is possible, which is exactly what preserves
// the isolation property. AS-granularity pointer caches may shortcut
// when the local Bloom filter proves the destination is not in the
// local customer cone; Bloom peering crosses a peering link when a
// peer's filter claims the destination, backtracking on false positives.
func (in *Internet) Route(src, dst ident.ID) (RouteResult, error) {
	srcAS, ok := in.hostedAt[src]
	if !ok {
		return RouteResult{}, fmt.Errorf("%w: source %s", errUnknownID, src.Short())
	}
	return in.route(srcAS, src, dst, nil)
}

// RouteFromAS forwards a packet injected at an arbitrary AS, using any
// resident virtual node as the starting ring position.
func (in *Internet) RouteFromAS(from topology.ASN, dst ident.ID) (RouteResult, error) {
	vns := in.ases[from].VNs
	if len(vns) == 0 {
		return RouteResult{}, fmt.Errorf("%w: AS %d hosts no identifiers to route from", errUnknownID, from)
	}
	return in.route(from, vns[0].ID, dst, nil)
}

// route is the forwarding loop behind Route, RouteFromAS and
// RouteAnycast. accept, when set, is asked at every AS the packet
// reaches whether to deliver there instead of at dst's host.
func (in *Internet) route(srcAS topology.ASN, pos, dst ident.ID, accept func(*AS) bool) (RouteResult, error) {
	if in.failedAS[srcAS] {
		return RouteResult{}, errASDown
	}
	// The benchmark's routes cross 16 ASes on average; 32 hold ~96 % of them.
	res := RouteResult{Traversed: append(make([]topology.ASN, 0, 32), srcAS)}
	cur := srcAS
	// Staleness is per (pointer, level): a pointer can be unreachable
	// within one level's subtree (its policy path is down) while the same
	// target is perfectly reachable at a higher level.
	var stale staleSet
	var checkedPeer []topology.ASN
	var peerCrossings []Root
	// The pointer the packet is heading for, re-evaluated at every AS it
	// transits: border routers with richer state re-aim the packet toward
	// strictly closer identifiers (the augmented greedy of §2.3).
	var target Ptr
	var targetRoot Root
	haveTarget := false
	// The segment toward the target, planned by the last search; a stale
	// mark drops it.
	seg := &in.seg
	seg.path = seg.path[:0]
	markStale := func() {
		stale.add(staleKey{target, targetRoot})
		haveTarget = false
		seg.path = seg.path[:0]
	}

	deliver := func(at topology.ASN) (RouteResult, error) {
		res.Delivered = true
		res.FinalAS = at
		res.StrictlyIsolated = in.isolationOK(srcAS, dst, res.Traversed, peerCrossings)
		if !res.StrictlyIsolated {
			in.Metrics.Count(ctrIsolationViolations, 1)
		}
		in.fillCachesOnDelivery(res.Traversed, Ptr{ID: dst, AS: at})
		return res, nil
	}

	for ttl := routeTTL; ttl > 0; ttl-- {
		as := in.ases[cur]
		if accept != nil && accept(as) {
			res.Delivered, res.FinalAS = true, cur
			return res, nil
		}
		// One search serves delivery and the free local advance: the
		// resident closest to dst without overshooting is dst itself when
		// dst is joined here, and otherwise the hop to take if it is legal.
		if i, ok := ident.Closest(len(as.VNs), func(k int) *ident.ID { return &as.VNs[k].ID }, pos, dst); len(as.VNs) > 0 && as.VNs[i].ID == dst {
			return deliver(cur)
		} else if ok {
			pos = as.VNs[i].ID
		}

		sel, selRoot, ok := in.selectPointer(as, pos, dst, stale)
		if testHookSelect != nil {
			testHookSelect(in, as, pos, dst, stale, sel, selRoot, ok)
		}
		if ok && sel.AS == cur {
			pos = sel.ID
			haveTarget = false
			continue
		}
		if ok && (!haveTarget || ident.Closer(dst, sel.ID, target.ID)) {
			target, targetRoot, haveTarget = sel, selRoot, true
		}

		// Bloom peering (§4.2 option 2): before escalating to the global
		// ring, ask each peer's filter whether the destination is in its
		// customer cone; cross the peering link on a hit.
		if in.opts.BloomPeering && (!haveTarget || targetRoot == top) {
			if in.tryBloomPeering(cur, dst, &checkedPeer, &res) {
				return deliver(res.FinalAS)
			}
		}

		if !haveTarget {
			return res, fmt.Errorf("%w: stuck at AS %d (predecessor of %s)", ErrNoRoute, cur, dst.Short())
		}
		if target.AS == cur {
			// Arrived: confirm the target still hosts the identifier.
			if as.Resident(target.ID) != nil {
				pos = target.ID
				haveTarget = false
			} else {
				markStale()
			}
			continue
		}
		// One AS-level hop toward the target: the planned segment's next,
		// or the first of a new plan when the target's AS or root moved.
		next, planned := seg.next(targetRoot, target.AS, cur)
		if !planned {
			path := in.pathWithin(targetRoot, cur, target.AS)
			if len(path) < 2 {
				markStale()
				continue
			}
			seg.plan(path, targetRoot, target.AS)
			next = path[1]
		} else if testHookHop != nil {
			testHookHop(in, targetRoot, target.AS, seg.path[seg.at-1], cur, next)
		}
		seg.at++
		res.ASHops++
		res.Traversed = append(res.Traversed, next)
		if targetRoot.Kind == rootPeer &&
			((cur == targetRoot.A && next == targetRoot.B) || (cur == targetRoot.B && next == targetRoot.A)) {
			peerCrossings = append(peerCrossings, targetRoot)
		}
		cur = next
	}
	return res, errTTL
}

// selectPointer implements the level-disciplined candidate choice: scan
// ring levels from the smallest subtree upward and return the closest
// progressing pointer at the first level that has one. Fingers
// participate at their annotated level; the pointer cache may override
// the choice when its entry is strictly closer and the local Bloom
// filter confirms the destination is not in the local customer cone
// (§4.1's isolation guard for caches).
//
// The ranking is total: level size, then distance, then — two levels of
// equal size holding the same identifier, or one identifier recorded at
// two ASes — rootLess and the AS number. So the winner does not depend on
// the order candidates are offered in.
//
// It requires what route's free local advance leaves: no resident of as
// in (pos, dst]. A resident's ring neighbour inside (pos, dst] is then one
// of two members per level (DESIGN.md §5): A, the first after pos, iff
// its predecessor is hosted at as, and B, the last at or before dst, iff
// its successor is. CheckRings makes a member hosted at as a resident
// that joined the level, and as's level lists exactly its residents'
// distinct ones.
func (in *Internet) selectPointer(as *AS, pos, dst ident.ID, stale staleSet) (Ptr, Root, bool) {
	var best Ptr
	var bestRoot Root
	bestSize := -1
	// sel ranks the candidates of the lowest level met so far.
	sel := ident.NewScan(pos, dst)
	consider := func(p Ptr, r Root, size int) {
		if bestSize != -1 && size > bestSize {
			return
		}
		if stale.has(staleKey{p, r}) || !ident.Progress(pos, dst, p.ID) {
			return
		}
		if size < bestSize {
			sel = ident.NewScan(pos, dst) // a lower level displaces whatever was found above it
		}
		if sel.Offer(p.ID) || (p.ID == best.ID &&
			(rootLess(r, bestRoot) || (r == bestRoot && p.AS < best.AS))) {
			best, bestRoot, bestSize = p, r, size
		}
	}
	for _, levels := range as.levelLists {
		for _, lv := range levels {
			if bestSize != -1 && lv.size > bestSize {
				break // levels ascend: nothing above the best one found can win
			}
			// The last members at or before pos and dst on the circle.
			n := lv.ring.Len()
			if i := (lv.ring.Floor(pos) + n) % n; lv.at(i).AS == as.ASN {
				consider(lv.at((i+1)%n), lv.root, lv.size) // A
			}
			if i := (lv.ring.Floor(dst) + n) % n; lv.at((i+1)%n).AS == as.ASN {
				consider(lv.at(i), lv.root, lv.size) // B
			}
		}
	}
	if in.opts.FingerBudget > 0 { // join builds fingers only then
		for _, vn := range as.VNs {
			for _, f := range vn.Fingers {
				consider(f.Ptr, f.Root, in.level(f.Root).size)
			}
		}
	}
	found := bestSize != -1

	// Cache shortcut, Bloom-guarded.
	if as.Cache != nil && as.Cache.Len() > 0 {
		dstBelowUs := as.Bloom != nil && as.Bloom.Contains(dst[:])
		if !dstBelowUs {
			if p, ok := as.Cache.Lookup(pos, dst); ok {
				c := ptrOf(p)
				if !stale.has(staleKey{c, top}) && (!found || ident.Closer(dst, c.ID, best.ID)) {
					return c, top, true
				}
			}
		}
	}
	return best, bestRoot, found
}

// tryBloomPeering checks the filter of each peer not in checked for dst,
// adding the peer to checked. On a true hit the packet crosses the link
// and descends the peer's customer cone to the destination; on a false
// positive it crosses, discovers the miss, and is "returned via the
// peering link" (§2.3) — two wasted hops and a backtrack. It reports
// whether the packet was delivered.
func (in *Internet) tryBloomPeering(cur topology.ASN, dst ident.ID, checked *[]topology.ASN, res *RouteResult) bool {
	dstAS, joined := in.hostedAt[dst]
	for _, q := range in.G.Peers(cur) {
		if slices.Contains(*checked, q) || !in.linkUp(cur, q) {
			continue
		}
		*checked = append(*checked, q)
		if f := in.ases[q].Bloom; f == nil || !f.Contains(dst[:]) {
			continue
		}
		// Cross the peering link.
		res.ASHops++
		res.Traversed = append(res.Traversed, q)
		if joined && in.below.has(q, dstAS) {
			// Descend q's customer cone to the destination.
			down := in.pathWithin(asRoot(q), q, dstAS)
			if down != nil {
				res.ASHops += len(down) - 1
				res.Traversed = append(res.Traversed, down[1:]...)
				res.Delivered = true
				res.FinalAS = dstAS
				return true
			}
		}
		// False positive (or unreachable): bounce back.
		res.ASHops++
		in.Metrics.Count(CtrBloomBacktracks, 1)
		res.Backtracks++
		res.Traversed = append(res.Traversed, cur)
	}
	return false
}

// isolationOK verifies the isolation property for a delivered packet:
// the traversed ASes must all lie within the subtree of the smallest
// root the destination joined that also contains the source AS,
// optionally unioned with the peer subtrees of any peering links the
// packet legitimately crossed (virtual-AS or Bloom crossings).
func (in *Internet) isolationOK(srcAS topology.ASN, dst ident.ID, traversed []topology.ASN, peerCrossings []Root) bool {
	dvn := in.vnOf(dst)
	if dvn == nil {
		return false
	}
	root, ok := in.lowestCommonRoot(dvn, srcAS)
	if !ok {
		return false
	}
	allowed := func(a topology.ASN) bool {
		if in.inSubtree(root, a) {
			return true
		}
		for _, pr := range peerCrossings {
			if in.inSubtree(pr, a) {
				return true
			}
		}
		// Bloom crossings: any peer of a traversed AS whose cone we
		// entered is recorded in traversed itself; accept descent inside
		// any peer cone adjacent to the source's up-hierarchy.
		return false
	}
	for _, a := range traversed {
		if !allowed(a) {
			// Bloom-mode crossings do not carry explicit peer roots;
			// tolerate ASes reachable by one peer step from the allowed
			// subtree when Bloom peering is enabled.
			if in.opts.BloomPeering && in.nearAllowedPeer(root, a) {
				continue
			}
			return false
		}
	}
	return true
}

// nearAllowedPeer reports whether AS a is inside the customer cone of a
// peer of some AS in root's subtree — the region Bloom peering may
// legitimately enter.
func (in *Internet) nearAllowedPeer(root Root, a topology.ASN) bool {
	for p := 0; p < in.G.NumASes(); p++ {
		pa := topology.ASN(p)
		if !in.below.has(pa, a) {
			continue
		}
		for _, q := range in.G.Peers(pa) {
			if in.inSubtree(root, q) {
				return true
			}
		}
	}
	return false
}

// fillCachesOnDelivery deposits the destination pointer in the caches of
// every AS the packet traversed — "routers maintain caches in fast
// memory which contain frequently accessed routes" (§4.1).
func (in *Internet) fillCachesOnDelivery(traversed []topology.ASN, p Ptr) {
	if in.opts.CacheCapacity <= 0 {
		return
	}
	for _, a := range traversed {
		if a != p.AS {
			in.ases[a].Cache.Insert(cachePointer(p))
		}
	}
}
