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

	// trees holds the shortest-path tree of the current failure state
	// rooted at each router, filled on first read (nil Dist: not built);
	// every topology change empties it.
	trees []topology.SPT
}

// msgLinkState is the metrics counter charged for LSA flooding.
const msgLinkState = "linkstate-flood"

// New wraps g in a fully-up link-state map charging flood costs to m.
func New(g *topology.Graph, m sim.Metrics) *Map {
	return &Map{
		g:          g,
		metrics:    m,
		failedLink: make(map[[2]topology.NodeID]bool),
		failedNode: make([]bool, g.NumNodes()),
		trees:      make([]topology.SPT, g.NumNodes()),
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
	return len(m.failedLink) == 0 || !m.failedLink[linkKey(a, b)]
}

// NodeUp reports whether router n is alive.
func (m *Map) NodeUp(n topology.NodeID) bool { return !m.failedNode[n] }

// floodCost charges one LSA flood: every live router re-floods the
// advertisement on each of its links once, so the cost is ~2·|E| hops.
func (m *Map) floodCost() {
	m.metrics.Count(msgLinkState, int64(2*m.g.NumEdges()))
}

// bump drops every cached tree after a topology change; recomputation
// is lazy.
func (m *Map) bump() {
	clear(m.trees)
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

// restoreNode brings router n back.
func (m *Map) restoreNode(n topology.NodeID) {
	if !m.failedNode[n] {
		return
	}
	m.failedNode[n] = false
	m.bump()
	m.floodCost()
}

// spt returns the cached src-rooted tree, building it on first read. The
// tree is valid until the next Fail* or Restore*, which clears it.
func (m *Map) spt(src topology.NodeID) *topology.SPT {
	t := &m.trees[src]
	if t.Dist == nil {
		*t = m.g.Dijkstra(src, m.Up)
	}
	return t
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

// AppendPath appends Path(src, dst)[1:] to path and returns it, without
// building the path. An unreachable dst (a failed src or dst is one)
// appends nothing.
func (m *Map) AppendPath(path []topology.NodeID, src, dst topology.NodeID) []topology.NodeID {
	return m.spt(src).AppendPath(path, dst)
}

// Parents returns the parent array of the current src-rooted
// shortest-path tree: walking parent[n] from dst reaches src along
// Path(src, dst) reversed, without building the path. The array is the
// map's cached tree, valid until the next Fail* or Restore*; callers must
// not write to it.
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
	return int(spt.Hops[dst])
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
// per physical hop: one read of the src-rooted tree's First column, the
// next-hop entry an OSPF router holds per destination. A failed router's
// links are all down, so its tree reaches nothing and no tree reaches it.
func (m *Map) NextHop(src, dst topology.NodeID) (topology.NodeID, bool) {
	hop := m.spt(src).First[dst]
	return topology.NodeID(hop), hop >= 0
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
