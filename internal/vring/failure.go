package vring

import (
	"fmt"
	"sort"

	"rofl/internal/ident"
)

// This file implements §3.2 of the paper: host failure (directed-flood
// teardown plus successor-group repair), router failure (deterministic
// failover), link failure, and partition split/merge driven by zero-node
// advertisements, together with the ring-consistency checker the paper's
// simulator runs ("we perform consistency checks for misconverged rings
// in the simulator", §6.2).

// members returns all live stable (ring-member) virtual nodes, sorted by
// identifier. Ephemeral hosts never appear: they are not ring members.
func (n *Network) members() []Pointer {
	var out []Pointer
	for _, r := range n.Routers {
		if !n.LS.NodeUp(r.Node) {
			continue
		}
		for _, vn := range r.VNs.All() {
			if vn.Ephemeral {
				continue
			}
			out = append(out, Pointer{ID: vn.ID, Router: r.Node})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// membersIn filters members to those hosted inside the given component.
func membersIn(ms []Pointer, comp map[RouterID]bool) []Pointer {
	out := ms[:0:0]
	for _, p := range ms {
		if comp[p.Router] {
			out = append(out, p)
		}
	}
	return out
}

// ringTargets computes the correct successor group and predecessor for
// index i of the sorted member list.
func ringTargets(ms []Pointer, i, group int) (succs []Pointer, pred Pointer) {
	nm := len(ms)
	if nm <= 1 {
		return nil, Pointer{}
	}
	for k := 1; k <= group && k < nm; k++ {
		succs = append(succs, ms[(i+k)%nm])
	}
	pred = ms[(i-1+nm)%nm]
	return succs, pred
}

// chargeProbe accounts for one repair/rejoin control exchange: a greedy
// route from the repairing router toward the target identifier over the
// (now consistent) ring, plus a direct acknowledgment back. This is how
// the paper's "rejoin the relevant ID" costs are measured.
func (n *Network) chargeProbe(from RouterID, target ident.ID, counter string) int {
	out, err := n.greedy(from, target, counter, nil, nil, nil)
	if err != nil {
		return 0
	}
	msgs := out.Msgs
	if h, _, ok := n.hop(out.Final, from, counter, nil); ok {
		msgs += h
	}
	return msgs
}

// directedFloodCost computes the paper's constrained teardown cost: the
// number of links in the union of shortest paths from origin to each
// router in targets — a source-routed flood that traverses only routers
// holding (or on the way to) pointers for the failed identifier (§3.2).
func (n *Network) directedFloodCost(origin RouterID, targets map[RouterID]bool) int {
	type link struct{ a, b RouterID }
	seen := map[link]bool{}
	for t := range targets {
		if t == origin {
			continue
		}
		path := n.LS.Path(origin, t)
		for i := 1; i < len(path); i++ {
			a, b := path[i-1], path[i]
			if a > b {
				a, b = b, a
			}
			seen[link{a, b}] = true
		}
	}
	return len(seen)
}

// pointerHolders returns the routers that currently hold any state
// referencing id: virtual-node ring pointers, parked entries, or cache
// entries.
func (n *Network) pointerHolders(id ident.ID) map[RouterID]bool {
	holders := map[RouterID]bool{}
	for _, r := range n.Routers {
		if !n.LS.NodeUp(r.Node) {
			continue
		}
		_, hold := r.parkedAt(id)
		for _, vn := range r.VNs.All() {
			if vn.Pred.ID == id {
				hold = true
			}
			for _, s := range vn.Succs {
				if s.ID == id {
					hold = true
				}
			}
		}
		if hold || r.Cache.has(id) {
			holders[r.Node] = true
		}
	}
	return holders
}

// scrubID removes every reference to id from ring pointers and caches,
// repairing successor groups by shift-down and rejoining (with charged
// probes) when a group empties. It is the state transition common to
// graceful leave and crash; the caller decides what teardown traffic to
// charge.
func (n *Network) scrubID(id ident.ID, counter string) {
	ms := n.members()
	for _, r := range n.Routers {
		if !n.LS.NodeUp(r.Node) {
			continue
		}
		r.Cache.Remove(id)
		r.unpark(func(e parking) bool { return e.ID == id })
		for _, vn := range r.VNs.All() {
			// Successor groups: shift down past the dead identifier.
			kept := vn.Succs[:0]
			had := false
			for _, s := range vn.Succs {
				if s.ID == id {
					had = true
					continue
				}
				kept = append(kept, s)
			}
			if had {
				r.setRing(vn, kept, vn.Pred)
				n.refillGroup(vn, ms, counter)
			}
			if vn.Pred.ID == id {
				// New predecessor is the dead node's predecessor.
				if i, ok := findMember(ms, vn.ID); ok {
					_, pred := ringTargets(ms, i, n.opts.SuccessorGroup)
					r.setRing(vn, vn.Succs, pred)
					if pred != (Pointer{}) {
						n.hop(pred.Router, r.Node, counter, nil)
					}
				} else {
					r.setRing(vn, vn.Succs, Pointer{})
				}
			}
		}
	}
}

// refillGroup tops a successor group back up to the configured size from
// the (oracle) member list, charging a repair probe when the group had
// fully emptied — the case where shift-down is impossible and the node
// must rejoin to find its successor (§3.2).
func (n *Network) refillGroup(vn *VirtualNode, ms []Pointer, counter string) {
	i, ok := findMember(ms, vn.ID)
	if !ok {
		return
	}
	succs, _ := ringTargets(ms, i, n.opts.SuccessorGroup)
	emptied := len(vn.Succs) == 0
	n.Routers[vn.Router].setRing(vn, succs, vn.Pred)
	if emptied && len(succs) > 0 {
		n.chargeProbe(vn.Router, succs[0].ID, counter)
	}
}

// memberSearch returns the lower bound of id in the sorted member list.
func memberSearch(ms []Pointer, id ident.ID) int {
	return ident.Search(len(ms), func(k int) *ident.ID { return &ms[k].ID }, id)
}

func findMember(ms []Pointer, id ident.ID) (int, bool) {
	if i := memberSearch(ms, id); i < len(ms) && ms[i].ID == id {
		return i, true
	}
	return 0, false
}

// LeaveHost gracefully removes a host: the hosting router notifies the
// ring neighbors, which splice around it; cached pointers elsewhere are
// torn down with a directed flood.
func (n *Network) LeaveHost(id ident.ID) error {
	return n.removeHost(id, MsgTeardown)
}

// FailHost crashes a host. The hosting router detects the failure
// through a session timeout and sends a directed (source-routed) flood
// of teardowns to the constrained set of routers allowed to hold
// pointers for the identifier (§3.2); ring neighbors repair via
// successor-group shift-down, rejoining when the group empties.
func (n *Network) FailHost(id ident.ID) error {
	return n.removeHost(id, MsgTeardown)
}

func (n *Network) removeHost(id ident.ID, counter string) error {
	host, ok := n.hostedAt[id]
	if !ok {
		return fmt.Errorf("%w: %s", errUnknownID, id.Short())
	}
	r := n.Routers[host]
	vn := r.Resident(id)
	if vn == nil {
		delete(n.hostedAt, id)
		return fmt.Errorf("%w: %s", errUnknownID, id.Short())
	}
	if vn.Default {
		return fmt.Errorf("vring: cannot remove default virtual node %s", id.Short())
	}
	// Directed teardown flood to every pointer holder.
	holders := n.pointerHolders(id)
	n.Metrics.Count(counter, int64(n.directedFloodCost(host, holders)))

	orphans := r.unpark(func(e parking) bool { return e.parent == id })
	i, _ := r.find(id.Key())
	r.VNs.Delete(i)
	delete(n.hostedAt, id)
	n.scrubID(id, counter)
	n.reparkOrphans(orphans, counter)
	return nil
}

// reparkOrphans re-attaches still-alive ephemeral children to their
// current ring predecessor after their old parking spot disappeared.
func (n *Network) reparkOrphans(orphans []parking, counter string) {
	if len(orphans) == 0 {
		return
	}
	ms := n.members()
	if len(ms) == 0 {
		return
	}
	for _, e := range orphans {
		if _, alive := n.hostedAt[e.ID]; !alive {
			continue
		}
		pred := ms[predecessorIndex(ms, e.ID)]
		if n.Routers[pred.Router].park(pred.ID, e.Pointer) {
			n.hop(e.Router, pred.Router, counter, nil)
		}
	}
}

// MoveHost models mobility: the identifier leaves its current hosting
// router and rejoins at another, with overhead "comparable to join
// overhead" (§6.2).
func (n *Network) MoveHost(id ident.ID, to RouterID) (JoinResult, error) {
	host, ok := n.hostedAt[id]
	if !ok {
		return JoinResult{}, fmt.Errorf("%w: %s", errUnknownID, id.Short())
	}
	eph := n.Routers[host].Resident(id).Ephemeral
	if err := n.removeHost(id, MsgTeardown); err != nil {
		return JoinResult{}, err
	}
	if eph {
		return n.JoinEphemeral(id, to)
	}
	return n.JoinHost(id, to)
}

// FailRouter crashes a physical router: the link-state layer floods the
// failure; every cache purges pointers at the dead router (driven by the
// LSA, so free); resident stable hosts rejoin deterministically at the
// next alive router on the pre-agreed failover list; ring state
// referencing the dead router's identifiers is repaired.
func (n *Network) FailRouter(node RouterID) error {
	if !n.LS.NodeUp(node) {
		return errRouterDown
	}
	r := n.Routers[node]
	n.LS.FailNode(node) // LSA flood charged by linkstate

	// LSA-driven cache purge at every surviving router.
	for _, other := range n.Routers {
		if other.Node != node && n.LS.NodeUp(other.Node) {
			other.Cache.RemoveRouter(node)
		}
	}

	// The dead router's state is gone; parked children of its virtual
	// nodes survive at their own routers and need a new parking spot.
	dead, orphans := r.VNs, r.parked
	r.VNs, r.parked = ident.Columns[*VirtualNode]{}, nil
	r.Cache = NewPointerCache(n.opts.CacheCapacity)
	for _, vn := range dead.All() {
		delete(n.hostedAt, vn.ID)
	}

	// Ring neighbors repair around the dead identifiers, the default
	// virtual node's router-ID first.
	n.scrubID(r.ID, MsgRepair)
	for _, vn := range dead.All() {
		if !vn.Default {
			n.scrubID(vn.ID, MsgRepair)
		}
	}

	n.reparkOrphans(orphans, MsgRepair)

	// Hosts fail over: the end host and remote routers deterministically
	// pick the next alive, reachable router on the pre-agreed list.
	for _, vn := range dead.All() {
		if vn.Default {
			continue
		}
		target, ok := n.failoverTarget(node)
		if !ok {
			continue // no alive router reachable; host stays down
		}
		var err error
		if vn.Ephemeral {
			_, err = n.JoinEphemeral(vn.ID, target)
		} else {
			_, err = n.JoinHost(vn.ID, target)
		}
		if err != nil {
			return fmt.Errorf("failover rejoin of %s: %w", vn.ID.Short(), err)
		}
	}
	return nil
}

// failoverTarget returns the next alive router after `failed` on the
// pre-agreed order.
func (n *Network) failoverTarget(failed RouterID) (RouterID, bool) {
	idx := -1
	for i, r := range n.failover {
		if r == failed {
			idx = i
			break
		}
	}
	for k := 1; k <= len(n.failover); k++ {
		cand := n.failover[(idx+k)%len(n.failover)]
		if n.LS.NodeUp(cand) {
			return cand, true
		}
	}
	return 0, false
}

// FailLink fails a physical link. Pointer caches need no explicit
// invalidation: cached pointers name hosting routers, and next hops are
// re-resolved against the link-state map, which already routes around
// the failure ("the network map will find alternate paths", §3.2).
func (n *Network) FailLink(a, b RouterID) { n.LS.FailLink(a, b) }

// RestoreLink restores a physical link.
func (n *Network) RestoreLink(a, b RouterID) { n.LS.RestoreLink(a, b) }

// PartitionPoP fails every link between the given PoP's routers and the
// rest of the network, creating a network-layer partition — the Fig 7
// workload. It returns the failed links so the caller can restore them.
func (n *Network) PartitionPoP(pop int) [][2]RouterID {
	var cut [][2]RouterID
	g := n.LS.Graph()
	for i := 0; i < g.NumNodes(); i++ {
		node := RouterID(i)
		if g.PoP(node) != pop {
			continue
		}
		for _, e := range g.Neighbors(node) {
			if g.PoP(e.To) != pop && n.LS.Up(node, e.To) {
				n.FailLink(node, e.To)
				cut = append(cut, [2]RouterID{node, e.To})
			}
		}
	}
	return cut
}

// RepairPartitions runs the paper's partition split/merge protocol to
// convergence: in every network-layer component, invalid pointers are
// torn down, successor lists shift down locally, and the component's
// zero node (the router with the smallest router-ID, advertised to all
// neighbors piggybacked on link-state floods) anchors rejoins until the
// component's members form one consistent ring (§3.2). When previously
// separated components reconnect, the same mechanism merges their rings:
// the zero-ID's predecessor on the other ring learns about it, triggering
// repairs that propagate successor by successor.
//
// It returns the number of repair messages charged. After it returns,
// CheckRing always passes — the convergence guarantee the paper
// validates over 10 million partition events.
func (n *Network) RepairPartitions() int {
	before := n.Metrics.Counter(MsgRepair)
	n.eachComponent(func(comp map[RouterID]bool, ms []Pointer) error {
		n.repairComponent(comp, ms)
		return nil
	})
	return int(n.Metrics.Counter(MsgRepair) - before)
}

// eachComponent calls fn for each connected component of live routers,
// in n.Routers order of its first router, with the component's routers
// and the ring members resident in it (taken from the members before the
// first call). It stops at fn's first error and returns it.
func (n *Network) eachComponent(fn func(comp map[RouterID]bool, ms []Pointer) error) error {
	ms := n.members()
	seen := map[RouterID]bool{}
	for _, r := range n.Routers {
		if !n.LS.NodeUp(r.Node) || seen[r.Node] {
			continue
		}
		compList := n.LS.Component(r.Node)
		comp := make(map[RouterID]bool, len(compList))
		for _, c := range compList {
			seen[c] = true
			comp[c] = true
		}
		if err := fn(comp, membersIn(ms, comp)); err != nil {
			return err
		}
	}
	return nil
}

// repairComponent re-establishes a single consistent ring over the
// stable members inside one component, charging a repair probe for each
// virtual node whose pointers changed. Ephemeral hosts are re-parked at
// their predecessor within the component.
func (n *Network) repairComponent(comp map[RouterID]bool, ms []Pointer) {
	// Zero-node advertisements ride on link-state floods: free.
	for i, p := range ms {
		r := n.Routers[p.Router]
		vn := r.Resident(p.ID)
		succs, pred := ringTargets(ms, i, n.opts.SuccessorGroup)
		// Only a wrong immediate successor or predecessor counts as ring
		// damage needing a charged repair join; deeper successor-group
		// entries refresh on the periodic stabilization probes that ride
		// on existing traffic.
		broken := vn.Pred != pred ||
			(len(succs) > 0 && (len(vn.Succs) == 0 || vn.Succs[0] != succs[0])) ||
			(len(succs) == 0 && len(vn.Succs) != 0)
		r.setRing(vn, succs, pred)
		if broken && len(succs) > 0 {
			n.chargeProbe(vn.Router, succs[0].ID, MsgRepair)
		}
	}
	// Parked and cache entries pointing outside the component are
	// detectably unreachable via link state; purge them (free).
	for node := range comp {
		r := n.Routers[node]
		r.unpark(func(e parking) bool { return !comp[e.Router] })
		var purge []ident.ID
		r.Cache.each(func(p Pointer) bool {
			if !comp[p.Router] {
				purge = append(purge, p.ID)
			}
			return true
		})
		for _, id := range purge {
			r.Cache.Remove(id)
		}
	}
	// Re-park every ephemeral hosted in this component at its correct
	// predecessor among the component's members.
	n.reparkEphemerals(comp, ms)
}

func (n *Network) reparkEphemerals(comp map[RouterID]bool, ms []Pointer) {
	if len(ms) == 0 {
		return
	}
	for node := range comp {
		for _, vn := range n.Routers[node].VNs.All() {
			if !vn.Ephemeral {
				continue
			}
			pred := ms[predecessorIndex(ms, vn.ID)]
			if n.Routers[pred.Router].park(pred.ID, Pointer{ID: vn.ID, Router: vn.Router}) {
				n.chargeProbe(vn.Router, pred.ID, MsgRepair)
			}
			// Remove stale parkings at other members.
			for other := range comp {
				n.Routers[other].unpark(func(e parking) bool {
					return e.ID == vn.ID && (other != pred.Router || e.parent != pred.ID)
				})
			}
		}
	}
}

// predecessorIndex returns the index of the member that is id's ring
// predecessor: the largest member strictly less than id, circularly.
func predecessorIndex(ms []Pointer, id ident.ID) int {
	return (memberSearch(ms, id) - 1 + len(ms)) % len(ms)
}

// CheckRing verifies the ring invariants the paper's simulator checks
// after every convergence event: within each network-layer component,
// the stable members sorted by identifier must form exactly one ring
// (successor[0] and predecessor of every member point to the adjacent
// member), and every ephemeral host must be parked at its ring
// predecessor. Beneath the ring, every router's two tables must be
// strictly ascending, every resident hosted there, and every parking
// owned by a stable resident of that router. It returns nil iff all
// invariants hold.
func (n *Network) CheckRing() error {
	for _, r := range n.Routers {
		for i, vn := range r.VNs.All() {
			// A floor landing on each index, on the ID its resident holds,
			// is strict ascent of the residents' IDs.
			if j, ok := r.find(vn.ID.Key()); !ok || j != i {
				return fmt.Errorf("%w: router %d residents out of order at %s", errRingCorrupted, r.Node, vn.ID.Short())
			}
			if host, ok := n.hostedAt[vn.ID]; !ok || host != r.Node || vn.Router != r.Node {
				return fmt.Errorf("%w: %s resident at router %d is not hosted there", errRingCorrupted, vn.ID.Short(), r.Node)
			}
		}
		for i, e := range r.parked {
			if j, _ := r.parkedAt(e.ID); j != i {
				return fmt.Errorf("%w: router %d parkings out of order at %s", errRingCorrupted, r.Node, e.ID.Short())
			}
			if p := r.Resident(e.parent); p == nil || p.Ephemeral {
				return fmt.Errorf("%w: %s parked at router %d, no stable resident %s there", errRingCorrupted, e.ID.Short(), r.Node, e.parent.Short())
			}
		}
	}
	return n.eachComponent(n.checkComponent)
}

func (n *Network) checkComponent(comp map[RouterID]bool, ms []Pointer) error {
	if len(ms) > 1 { // a lone member holds no ring pointers
		vn := func(i int) *VirtualNode { return n.Routers[ms[i].Router].Resident(ms[i].ID) }
		if _, err := ident.CheckRing(len(ms), n.opts.SuccessorGroup, func(i int) Pointer { return ms[i] },
			func(p Pointer) ident.ID { return p.ID }, func(i int) []Pointer { return vn(i).Succs },
			func(i int) (Pointer, bool) { return vn(i).Pred, true }); err != nil {
			return fmt.Errorf("%w: %w", errRingCorrupted, err)
		}
	}
	// Every ephemeral host in the component must be parked at its
	// predecessor.
	for node := range comp {
		for _, vn := range n.Routers[node].VNs.All() {
			if !vn.Ephemeral || len(ms) == 0 {
				continue
			}
			pred := ms[predecessorIndex(ms, vn.ID)]
			pr := n.Routers[pred.Router]
			if i, ok := pr.parkedAt(vn.ID); !ok || pr.parked[i].parent != pred.ID {
				return fmt.Errorf("%w: ephemeral %s not parked at predecessor %s",
					errRingCorrupted, vn.ID.Short(), pred.ID.Short())
			}
		}
	}
	return nil
}
