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
	// ASHops is the number of AS-level links traversed.
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
		return RouteResult{}, fmt.Errorf("%w: source %s", ErrUnknownID, src.Short())
	}
	return in.route(srcAS, src, dst, nil)
}

// RouteFromAS forwards a packet injected at an arbitrary AS, using any
// resident virtual node as the starting ring position.
func (in *Internet) RouteFromAS(from topology.ASN, dst ident.ID) (RouteResult, error) {
	vns := in.ases[from].VNs
	if len(vns) == 0 {
		return RouteResult{}, fmt.Errorf("%w: AS %d hosts no identifiers to route from", ErrUnknownID, from)
	}
	return in.route(from, vns[0].ID, dst, nil)
}

// route is the forwarding loop behind Route, RouteFromAS and
// RouteAnycast. accept, when set, is asked at every AS the packet
// reaches whether to deliver there instead of at dst's host.
func (in *Internet) route(srcAS topology.ASN, pos, dst ident.ID, accept func(*AS) bool) (RouteResult, error) {
	if in.failedAS[srcAS] {
		return RouteResult{}, ErrASDown
	}
	res := RouteResult{Traversed: []topology.ASN{srcAS}}
	cur := srcAS
	// Staleness is per (pointer, level): a pointer can be unreachable
	// within one level's subtree (its policy path is down) while the same
	// target is perfectly reachable at a higher level.
	var stale staleSet
	checkedPeer := map[topology.ASN]bool{}
	var peerCrossings []Root
	// The pointer the packet is heading for, re-evaluated at every AS it
	// transits: border routers with richer state re-aim the packet toward
	// strictly closer identifiers (the augmented greedy of §2.3).
	var target Ptr
	var targetRoot Root
	haveTarget := false

	deliver := func(at topology.ASN) (RouteResult, error) {
		res.Delivered = true
		res.FinalAS = at
		res.StrictlyIsolated = in.isolationOK(srcAS, dst, res.Traversed, peerCrossings)
		if !res.StrictlyIsolated {
			in.Metrics.Count(CtrIsolationViolations, 1)
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
		if as.Resident(dst) != nil {
			return deliver(cur)
		}

		// Free local advance: hop to the resident virtual node closest to
		// dst without overshooting.
		if i, ok := ident.Closest(len(as.VNs), func(k int) *ident.ID { return &as.VNs[k].ID }, pos, dst); ok {
			pos = as.VNs[i].ID
		}

		sel, selRoot, ok := in.selectPointer(as, pos, dst, stale)
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
		if in.opts.BloomPeering && (!haveTarget || targetRoot == Top) {
			_, delivered := in.tryBloomPeering(cur, dst, checkedPeer, &res)
			if delivered {
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
			} else {
				stale.add(staleKey{target, targetRoot})
			}
			haveTarget = false
			continue
		}
		path := in.pathWithin(targetRoot, cur, target.AS)
		if len(path) < 2 {
			stale.add(staleKey{target, targetRoot})
			haveTarget = false
			continue
		}
		// One AS-level hop toward the target.
		next := path[1]
		res.ASHops++
		in.Metrics.Count(MsgData, 1)
		res.Traversed = append(res.Traversed, next)
		if targetRoot.Kind == RootPeer &&
			((cur == targetRoot.A && next == targetRoot.B) || (cur == targetRoot.B && next == targetRoot.A)) {
			peerCrossings = append(peerCrossings, targetRoot)
		}
		cur = next
	}
	return res, ErrTTL
}

// selectPointer implements the level-disciplined candidate choice: scan
// ring levels from the smallest subtree upward and return the closest
// progressing pointer at the first level that has one. Fingers
// participate at their annotated level; the pointer cache may override
// the choice when its entry is strictly closer and the local Bloom
// filter confirms the destination is not in the local customer cone
// (§4.1's isolation guard for caches).
//
// Resident nodes are offered in identifier order, and the ranking is
// total besides: level size, then distance, then — two levels of equal
// size holding the same identifier, or one identifier recorded at two
// ASes — rootLess and the AS number.
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
	for _, vn := range as.VNs {
		for _, lv := range vn.levels {
			if bestSize != -1 && lv.size > bestSize {
				break // levels ascend: nothing above the best one found can win
			}
			pred, succ := lv.neighbours(vn.ID)
			consider(succ, lv.root, lv.size)
			consider(pred, lv.root, lv.size)
		}
		for _, f := range vn.Fingers {
			consider(f.Ptr, f.Root, in.level(f.Root).size)
		}
	}
	found := bestSize != -1

	// Cache shortcut, Bloom-guarded.
	if as.Cache.Len() > 0 {
		dstBelowUs := as.Bloom != nil && as.Bloom.Contains(dst[:])
		if !dstBelowUs {
			if p, ok := as.Cache.Lookup(pos, dst); ok {
				c := ptrOf(p)
				if !stale.has(staleKey{c, Top}) && (!found || ident.Closer(dst, c.ID, best.ID)) {
					return c, Top, true
				}
			}
		}
	}
	return best, bestRoot, found
}

// tryBloomPeering checks each unexamined peer's filter for dst. On a
// true hit the packet crosses the link and descends the peer's customer
// cone to the destination; on a false positive it crosses, discovers the
// miss, and is "returned via the peering link" (§2.3) — two wasted hops
// and a backtrack. Returns (attempted, delivered).
func (in *Internet) tryBloomPeering(cur topology.ASN, dst ident.ID, checked map[topology.ASN]bool, res *RouteResult) (bool, bool) {
	dstAS, joined := in.hostedAt[dst]
	attempted := false
	for _, q := range in.G.Peers(cur) {
		if checked[q] || !in.linkUp(cur, q) {
			continue
		}
		f := in.ases[q].Bloom
		if f == nil || !f.Contains(dst[:]) {
			checked[q] = true
			continue
		}
		checked[q] = true
		attempted = true
		// Cross the peering link.
		res.ASHops++
		in.Metrics.Count(MsgData, 1)
		res.Traversed = append(res.Traversed, q)
		if joined && in.below[q][dstAS] {
			// Descend q's customer cone to the destination.
			down := in.pathWithin(asRoot(q), q, dstAS)
			if down != nil {
				res.ASHops += len(down) - 1
				in.Metrics.Count(MsgData, int64(len(down)-1))
				res.Traversed = append(res.Traversed, down[1:]...)
				res.Delivered = true
				res.FinalAS = dstAS
				return true, true
			}
		}
		// False positive (or unreachable): bounce back.
		res.ASHops++
		in.Metrics.Count(MsgData, 1)
		in.Metrics.Count(CtrBloomBacktracks, 1)
		res.Backtracks++
		res.Traversed = append(res.Traversed, cur)
	}
	return attempted, false
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
		if !in.below[pa][a] {
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
