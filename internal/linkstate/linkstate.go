// Package linkstate models the OSPF-like protocol ROFL assumes
// underneath it (paper §2.1): a link-state protocol that gives every
// router a map of the physical network — not routes to hosts — detects
// link and node failures, and notifies the routing layer.
//
// In the simulator all routers share one converged map with per-query
// failure filters; that matches the paper's steady-state assumption
// ("link/router failures that do not trigger partitions [recover in
// times] comparable to OSPF recovery times", §6.2) while still charging
// the flooding cost of each LSA to the metrics sink.
package linkstate

import (
	"fmt"

	"rofl/internal/sim"
	"rofl/internal/topology"
)

// Map is the converged link-state view over a static topology plus a
// dynamic set of failed links and routers.
type Map struct {
	g       *topology.Graph
	metrics sim.Metrics

	failedLink map[[2]topology.NodeID]bool
	failedNode []bool

	// sptCache holds shortest-path trees of the current failure state;
	// every topology change empties it.
	sptCache map[topology.NodeID]topology.SPT
}

// MsgLinkState is the metrics counter charged for LSA flooding.
const MsgLinkState = "linkstate-flood"

// New wraps g in a fully-up link-state map charging flood costs to m.
func New(g *topology.Graph, m sim.Metrics) *Map {
	return &Map{
		g:          g,
		metrics:    m,
		failedLink: make(map[[2]topology.NodeID]bool),
		failedNode: make([]bool, g.NumNodes()),
		sptCache:   make(map[topology.NodeID]topology.SPT),
	}
}

// Graph returns the underlying static topology.
func (m *Map) Graph() *topology.Graph { return m.g }

func linkKey(a, b topology.NodeID) [2]topology.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// Up reports whether the a–b link is usable: both endpoints alive and
// the link itself not failed. It is the LinkFilter all shortest-path
// queries run under.
func (m *Map) Up(a, b topology.NodeID) bool {
	if m.failedNode[a] || m.failedNode[b] {
		return false
	}
	return !m.failedLink[linkKey(a, b)]
}

// NodeUp reports whether router n is alive.
func (m *Map) NodeUp(n topology.NodeID) bool { return !m.failedNode[n] }

// floodCost charges one LSA flood: every live router re-floods the
// advertisement on each of its links once, so the cost is ~2·|E| hops.
func (m *Map) floodCost() {
	m.metrics.Count(MsgLinkState, int64(2*m.g.NumEdges()))
}

// bump drops every cached tree after a topology change; recomputation
// is lazy.
func (m *Map) bump() {
	clear(m.sptCache)
}

// FailLink marks the a–b link down and floods the LSA.
func (m *Map) FailLink(a, b topology.NodeID) {
	k := linkKey(a, b)
	if m.failedLink[k] {
		return
	}
	m.failedLink[k] = true
	m.bump()
	m.floodCost()
}

// RestoreLink brings the a–b link back.
func (m *Map) RestoreLink(a, b topology.NodeID) {
	k := linkKey(a, b)
	if !m.failedLink[k] {
		return
	}
	delete(m.failedLink, k)
	m.bump()
	m.floodCost()
}

// FailNode marks router n down and floods the LSA.
func (m *Map) FailNode(n topology.NodeID) {
	if m.failedNode[n] {
		return
	}
	m.failedNode[n] = true
	m.bump()
	m.floodCost()
}

// RestoreNode brings router n back.
func (m *Map) RestoreNode(n topology.NodeID) {
	if !m.failedNode[n] {
		return
	}
	m.failedNode[n] = false
	m.bump()
	m.floodCost()
}

func (m *Map) spt(src topology.NodeID) topology.SPT {
	if spt, ok := m.sptCache[src]; ok {
		return spt
	}
	spt := m.g.Dijkstra(src, m.Up)
	m.sptCache[src] = spt
	return spt
}

// Reachable reports whether dst is reachable from src in the current
// failure state.
func (m *Map) Reachable(src, dst topology.NodeID) bool {
	if m.failedNode[src] || m.failedNode[dst] {
		return false
	}
	return m.spt(src).Reachable(dst)
}

// Path returns the current shortest src→dst router path (inclusive), or
// nil if unreachable.
func (m *Map) Path(src, dst topology.NodeID) []topology.NodeID {
	if m.failedNode[src] || m.failedNode[dst] {
		return nil
	}
	return m.spt(src).PathTo(dst)
}

// Parents returns the parent array of the current src-rooted
// shortest-path tree: walking parent[n] from dst reaches src along
// Path(src, dst) reversed, without building the path. The array is the
// map's cached tree; callers must not write to it.
func (m *Map) Parents(src topology.NodeID) []topology.NodeID {
	return m.spt(src).Parent
}

// Hops returns the hop count of the current shortest src→dst path, or -1
// if unreachable.
func (m *Map) Hops(src, dst topology.NodeID) int {
	if m.failedNode[src] || m.failedNode[dst] {
		return -1
	}
	spt := m.spt(src)
	if !spt.Reachable(dst) {
		return -1
	}
	return spt.Hops[dst]
}

// Latency returns the weighted length of the shortest src→dst path in
// milliseconds, or -1 if unreachable.
func (m *Map) Latency(src, dst topology.NodeID) float64 {
	if m.failedNode[src] || m.failedNode[dst] {
		return -1
	}
	spt := m.spt(src)
	if !spt.Reachable(dst) {
		return -1
	}
	return spt.Dist[dst]
}

// NextHop returns the first router after src on the shortest path to
// dst, and whether one exists. Forwarding in Algorithm 2 resolves the
// chosen virtual-node pointer to a physical next hop through this, once
// per physical hop: it climbs the src-rooted tree from dst until the
// parent is src — Path(src, dst)[1] without building the path.
func (m *Map) NextHop(src, dst topology.NodeID) (topology.NodeID, bool) {
	if m.failedNode[src] || m.failedNode[dst] {
		return 0, false
	}
	parent := m.spt(src).Parent
	for hop := dst; hop != -1; hop = parent[hop] {
		if parent[hop] == src {
			return hop, true
		}
	}
	return 0, false // dst is src itself, or outside its partition
}

// Component returns the set of routers reachable from start under the
// current failure state. Partition-repair (§3.2) is driven by
// per-component zero-node election.
func (m *Map) Component(start topology.NodeID) []topology.NodeID {
	if m.failedNode[start] {
		return nil
	}
	comp := m.g.Component(start, m.Up)
	out := comp[:0]
	for _, n := range comp {
		if !m.failedNode[n] {
			out = append(out, n)
		}
	}
	return out
}

// String summarizes the map state.
func (m *Map) String() string {
	down := 0
	for _, f := range m.failedNode {
		if f {
			down++
		}
	}
	return fmt.Sprintf("linkstate{failedLinks=%d failedNodes=%d}", len(m.failedLink), down)
}
