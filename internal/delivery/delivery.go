// Package delivery implements ROFL's enhanced delivery models (paper
// §5.2) on top of the intradomain virtual ring:
//
//   - Anycast: servers of group G join with identifiers (G, x); a sender
//     routes to (G, r) for an arbitrary suffix r, and greedy forwarding
//     delivers to the first member the packet encounters — no state or
//     control overhead beyond the members' ordinary joins.
//   - Multicast: a joining host anycasts toward a nearby member of G,
//     painting group pointers along the reverse path; the pointers form
//     a tree of bidirectional links over which data packets are flooded
//     (excluding the arrival link).
package delivery

import (
	"errors"
	"fmt"
	"math/rand"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/vring"
)

// msgPaint is the metrics counter this package charges: the hops of the
// probe each multicast join routes toward the tree.
const msgPaint = "delivery-paint"

// Errors returned by delivery operations.
var (
	errEmptyGroup = errors.New("delivery: group has no members")
	errNotMember  = errors.New("delivery: host is not a group member")
)

// Anycast wraps a group prefix for anycast sends over a ring network.
type Anycast struct {
	Net   *vring.Network
	Group ident.Group
}

// NewAnycast binds group to a network.
func NewAnycast(n *vring.Network, g ident.Group) *Anycast { return &Anycast{Net: n, Group: g} }

// AddMember joins a server into the group with the given suffix; it is
// an ordinary ring join of (G, x), which is the paper's point — anycast
// "requires no additional state or control message overhead beyond that
// of joining the network."
//
// A member's anycast catchment is the suffix interval from the previous
// member up to its own suffix, so spreading suffixes evenly over the
// 32-bit space balances load across members, and shifting them shifts
// load — the i3-style control the paper describes (§5.2).
func (a *Anycast) AddMember(suffix uint32, at vring.RouterID) (vring.JoinResult, error) {
	return a.Net.JoinHost(a.Group.Member(suffix), at)
}

// Send routes a packet to any member of the group: the destination
// carries a random suffix and delivery happens at the first router
// hosting any (G, *) identifier — of several there, the lowest.
func (a *Anycast) Send(from vring.RouterID, rng *rand.Rand) (vring.Outcome, error) {
	dst := a.Group.RandomMember(rng)
	out, err := a.Net.RouteMatch(from, dst, func(r *vring.Router) (*vring.VirtualNode, bool) {
		for _, vn := range r.VNs.All() {
			if !vn.Default && ident.SameGroup(vn.ID, dst) {
				return vn, true
			}
		}
		return nil, false
	})
	if err != nil {
		return out, err
	}
	if !out.Delivered {
		return out, fmt.Errorf("%w: %s", errEmptyGroup, a.Group.Member(0).Short())
	}
	return out, nil
}

// SendTo routes to a specific suffix — the paper's load-balancing knob
// ("hosts or intermediate routers may vary r and the suffixes to control
// the path", §5.1).
func (a *Anycast) SendTo(from vring.RouterID, suffix uint32) (vring.RouteResult, error) {
	return a.Net.Route(from, a.Group.Member(suffix))
}

// Multicast maintains one group's path-painted distribution tree.
type Multicast struct {
	Net     *vring.Network
	Group   ident.Group
	Metrics sim.Metrics

	// adj is the painted tree: bidirectional links between routers.
	adj map[vring.RouterID]map[vring.RouterID]bool
	// members maps member identifiers to their hosting routers.
	members map[ident.ID]vring.RouterID
	inTree  map[vring.RouterID]bool
}

// NewMulticast creates an empty tree for group g.
func NewMulticast(n *vring.Network, g ident.Group, m sim.Metrics) *Multicast {
	return &Multicast{
		Net: n, Group: g, Metrics: m,
		adj:     make(map[vring.RouterID]map[vring.RouterID]bool),
		members: make(map[ident.ID]vring.RouterID),
		inTree:  make(map[vring.RouterID]bool),
	}
}

// Join adds a member with the given suffix hosted at router `at`: the
// member joins the ring as (G, x), then anycasts toward the group,
// painting tree pointers back along the traversed path until the
// message intersects a router already in the tree (§5.2).
func (m *Multicast) Join(suffix uint32, at vring.RouterID) error {
	id := m.Group.Member(suffix)
	if _, err := m.Net.JoinHost(id, at); err != nil {
		return fmt.Errorf("delivery: joining member ring identity: %w", err)
	}
	m.members[id] = at
	if len(m.members) == 1 {
		// First member roots the tree.
		m.inTree[at] = true
		return nil
	}
	// Anycast toward the top of the group's suffix space (excluding
	// ourselves as a waypoint), stopping at the first router already on
	// the tree or hosting another member.
	accept := func(r *vring.Router) (*vring.VirtualNode, bool) {
		if m.inTree[r.Node] && r.VNs.Len() > 0 {
			// Any resident virtual node will do as the "delivery" point,
			// so the lowest; the router itself is what matters.
			return *r.VNs.Val(0), true
		}
		for _, vn := range r.VNs.All() {
			if !vn.Default && ident.SameGroup(vn.ID, id) && vn.ID != id {
				return vn, true
			}
		}
		return nil, false
	}
	probe := m.Group.Member(0xffffffff)
	out, err := m.Net.RouteMatch(at, probe, accept, id)
	if err != nil {
		return fmt.Errorf("delivery: painting toward group: %w", err)
	}
	if !out.Delivered {
		// The probe got stuck on a non-member between the group range and
		// the probe suffix; fall back to routing at a known member (the
		// group state the tree maintainer already has).
		var target ident.ID
		found := false
		for mid := range m.members {
			if mid == id {
				continue
			}
			// The minimum ID: a choice map order cannot move, not a
			// routing decision.
			if !found || mid.Less(target) {
				target, found = mid, true
			}
		}
		if !found {
			return fmt.Errorf("delivery: no reachable member to paint toward")
		}
		out, err = m.Net.RouteMatch(at, target, accept, id)
		if err != nil {
			return fmt.Errorf("delivery: painting toward member: %w", err)
		}
		if !out.Delivered {
			return fmt.Errorf("delivery: painting failed to reach the tree")
		}
	}
	// Paint the reverse path up to (and including) the intersection.
	path := out.Path
	m.Metrics.Count(msgPaint, int64(len(path)-1))
	for i := 1; i < len(path); i++ {
		m.link(path[i-1], path[i])
		if m.inTree[path[i]] && i < len(path)-1 {
			// Intersected the existing tree; later hops of the probe are
			// not painted.
			path = path[:i+1]
			break
		}
	}
	for _, r := range path {
		m.inTree[r] = true
	}
	return nil
}

func (m *Multicast) link(a, b vring.RouterID) {
	if a == b {
		return
	}
	if m.adj[a] == nil {
		m.adj[a] = make(map[vring.RouterID]bool)
	}
	if m.adj[b] == nil {
		m.adj[b] = make(map[vring.RouterID]bool)
	}
	m.adj[a][b] = true
	m.adj[b][a] = true
}

// Members returns the number of group members.
func (m *Multicast) Members() int { return len(m.members) }

// TreeRouters returns the number of routers on the tree.
func (m *Multicast) TreeRouters() int { return len(m.inTree) }

// Send floods a packet from the given member over the tree: each router
// forwards a copy out of every tree link except the one the packet
// arrived on (§5.2). It returns the set of member identifiers reached
// and the number of link crossings.
func (m *Multicast) Send(from ident.ID) (map[ident.ID]bool, int, error) {
	root, ok := m.members[from]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", errNotMember, from.Short())
	}
	reachedRouters := map[vring.RouterID]bool{root: true}
	queue := []vring.RouterID{root}
	msgs := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := range m.adj[cur] {
			if reachedRouters[next] {
				continue
			}
			reachedRouters[next] = true
			msgs++
			queue = append(queue, next)
		}
	}
	reached := make(map[ident.ID]bool)
	for id, r := range m.members {
		if reachedRouters[r] {
			reached[id] = true
		}
	}
	return reached, msgs, nil
}

// Leave removes a member; if its router no longer hosts any member and
// is a tree leaf, the dangling branch is pruned.
func (m *Multicast) Leave(id ident.ID) error {
	at, ok := m.members[id]
	if !ok {
		return fmt.Errorf("%w: %s", errNotMember, id.Short())
	}
	delete(m.members, id)
	if err := m.Net.LeaveHost(id); err != nil {
		return err
	}
	// Prune leaf branches that no longer lead to members.
	m.prune(at)
	return nil
}

func (m *Multicast) hostsMember(r vring.RouterID) bool {
	for _, at := range m.members {
		if at == r {
			return true
		}
	}
	return false
}

func (m *Multicast) prune(r vring.RouterID) {
	for {
		if m.hostsMember(r) || len(m.adj[r]) != 1 {
			return
		}
		var next vring.RouterID
		for n := range m.adj[r] {
			next = n
		}
		delete(m.adj[r], next)
		delete(m.adj[next], r)
		delete(m.adj, r)
		delete(m.inTree, r)
		r = next
	}
}
