// Package topology provides the network substrates under ROFL: weighted
// router-level graphs with shortest-path machinery, a Rocketfuel-like ISP
// generator sized to the four ASes the paper simulates, and an
// Internet-like AS-level graph generator with customer-provider, peering
// and backup relationships (the paper's Routeviews + Subramanian-et-al
// substitute; see DESIGN.md §5 for the substitution rationale).
package topology

import (
	"math"
	"math/rand"
	"slices"
	"sort"
)

// NodeID indexes a router in a Graph.
type NodeID int

// Edge is one directed half of an undirected link.
type Edge struct {
	To     NodeID
	Weight float64 // one-way latency, milliseconds
}

// Graph is an undirected weighted multigraph of routers. The zero value
// is an empty graph ready for AddNode/AddEdge.
type Graph struct {
	adj   [][]Edge
	popOf []int // PoP index per node, -1 when unassigned
	edges int
}

// NewGraph returns an empty graph with capacity hints for n nodes.
func NewGraph(n int) *Graph {
	return &Graph{adj: make([][]Edge, 0, n), popOf: make([]int, 0, n)}
}

// AddNode appends a router and returns its id.
func (g *Graph) AddNode() NodeID {
	g.adj = append(g.adj, nil)
	g.popOf = append(g.popOf, -1)
	return NodeID(len(g.adj) - 1)
}

// AddEdge installs an undirected link of the given weight. Self-loops are
// rejected; parallel links are merged by keeping the lighter weight.
func (g *Graph) AddEdge(a, b NodeID, w float64) {
	if a == b {
		panic("topology: self-loop")
	}
	if g.updateWeight(a, b, w) {
		g.updateWeight(b, a, w)
		return
	}
	g.adj[a] = append(g.adj[a], Edge{To: b, Weight: w})
	g.adj[b] = append(g.adj[b], Edge{To: a, Weight: w})
	g.edges++
}

func (g *Graph) updateWeight(a, b NodeID, w float64) bool {
	for i := range g.adj[a] {
		if g.adj[a][i].To == b {
			if w < g.adj[a][i].Weight {
				g.adj[a][i].Weight = w
			}
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of the direct a–b link, if one exists.
func (g *Graph) EdgeWeight(a, b NodeID) (float64, bool) {
	for _, e := range g.adj[a] {
		if e.To == b {
			return e.Weight, true
		}
	}
	return 0, false
}

// HasEdge reports whether an a–b link exists.
func (g *Graph) HasEdge(a, b NodeID) bool {
	for _, e := range g.adj[a] {
		if e.To == b {
			return true
		}
	}
	return false
}

// NumNodes returns the number of routers.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected links.
func (g *Graph) NumEdges() int { return g.edges }

// Neighbors returns the adjacency list of n. Callers must not mutate it.
func (g *Graph) Neighbors(n NodeID) []Edge { return g.adj[n] }

// Degree returns the number of links at n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// SetPoP assigns node n to PoP p (paper Fig. 7 groups routers by
// Rocketfuel Point of Presence).
func (g *Graph) SetPoP(n NodeID, p int) { g.popOf[n] = p }

// PoP returns the PoP index of n, or -1.
func (g *Graph) PoP(n NodeID) int { return g.popOf[n] }

// PoPMembers returns the nodes of each PoP, indexed by PoP id.
func (g *Graph) PoPMembers() map[int][]NodeID {
	m := make(map[int][]NodeID)
	for n, p := range g.popOf {
		if p >= 0 {
			m[p] = append(m[p], NodeID(n))
		}
	}
	return m
}

// LinkFilter reports whether the link a→b is usable. A nil LinkFilter
// means all links are up.
type LinkFilter func(a, b NodeID) bool

// Dijkstra computes single-source shortest paths from src over links
// accepted by up (nil = all). Unreachable nodes get Dist = +Inf and
// Hops, First and Parent = -1.
func (g *Graph) Dijkstra(src NodeID, up LinkFilter) SPT {
	n := g.NumNodes()
	cols := make([]int32, 2*n)
	t := SPT{
		Src:    src,
		Dist:   make([]float64, n),
		Hops:   cols[:n:n],
		First:  cols[n:],
		Parent: make([]NodeID, n),
	}
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Parent[i], t.Hops[i], t.First[i] = -1, -1, -1
	}
	t.Dist[src] = 0
	t.Hops[src] = 0
	pq := make(distHeap, 1, n)
	pq[0] = distItem{node: src, dist: 0}
	done := make([]bool, n)
	for len(pq) > 0 {
		u := pq.pop().node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.adj[u] {
			if up != nil && !up(u, e.To) {
				continue
			}
			nd := t.Dist[u] + e.Weight
			if nd < t.Dist[e.To] ||
				(nd == t.Dist[e.To] && t.Hops[u]+1 < t.Hops[e.To]) {
				t.Dist[e.To] = nd
				t.Hops[e.To] = t.Hops[u] + 1
				t.Parent[e.To] = u
				if u == src {
					t.First[e.To] = int32(e.To)
				} else {
					t.First[e.To] = t.First[u]
				}
				pq.push(distItem{node: e.To, dist: nd})
			}
		}
	}
	return t
}

// SPT is a shortest-path tree rooted at Src. First[n] is the node after
// Src on the path to n — the next hop a router holds per destination —
// so it follows Parent; Hops and First share one backing array.
type SPT struct {
	Src    NodeID
	Dist   []float64
	Hops   []int32
	First  []int32
	Parent []NodeID
}

// PathTo reconstructs the src→dst node sequence, inclusive of both
// endpoints, or nil if dst is unreachable.
func (t SPT) PathTo(dst NodeID) []NodeID {
	if !t.Reachable(dst) {
		return nil
	}
	return t.AppendPath(append(make([]NodeID, 0, t.Hops[dst]+1), t.Src), dst)
}

// AppendPath appends the src→dst path after its first node to path,
// filling it back to front up Parent, and returns it; an unreachable
// dst, or Src itself, appends nothing.
func (t SPT) AppendPath(path []NodeID, dst NodeID) []NodeID {
	if !t.Reachable(dst) {
		return path
	}
	i := len(path) + int(t.Hops[dst])
	path = slices.Grow(path, int(t.Hops[dst]))[:i]
	for n := dst; n != t.Src; n = t.Parent[n] {
		path[i-1] = n
		i--
	}
	return path
}

// Reachable reports whether dst has a path from the tree's source.
func (t SPT) Reachable(dst NodeID) bool { return !math.IsInf(t.Dist[dst], 1) }

type distItem struct {
	node NodeID
	dist float64
}

// distHeap is a binary min-heap on dist. push and pop are container/heap's
// Push and Pop step for step, without boxing each item in an interface,
// so items of equal distance leave in container/heap's order and every
// tree is the one it builds.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	q := append(*h, it)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if q[j].dist >= q[i].dist {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *distHeap) pop() distItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if q[j].dist >= q[i].dist {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// Connected reports whether every node is reachable from node 0 over
// links accepted by up.
func (g *Graph) Connected(up LinkFilter) bool {
	if g.NumNodes() == 0 {
		return true
	}
	return len(g.Component(0, up)) == g.NumNodes()
}

// Component returns the set of nodes reachable from start over links
// accepted by up, as a sorted slice.
func (g *Graph) Component(start NodeID, up LinkFilter) []NodeID {
	seen := make([]bool, g.NumNodes())
	seen[start] = true
	queue := []NodeID{start}
	out := []NodeID{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if up != nil && !up(u, e.To) {
				continue
			}
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
				out = append(out, e.To)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DiameterHops returns the maximum over sampled sources of the eccentric
// hop count — an estimate of the hop diameter used to sanity-check
// generated topologies against Rocketfuel's (join overhead in the paper
// scales with diameter). samples <= 0 means use every node.
func (g *Graph) DiameterHops(samples int, rng *rand.Rand) int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	srcs := make([]NodeID, 0, n)
	if samples <= 0 || samples >= n {
		for i := 0; i < n; i++ {
			srcs = append(srcs, NodeID(i))
		}
	} else {
		for i := 0; i < samples; i++ {
			srcs = append(srcs, NodeID(rng.Intn(n)))
		}
	}
	diam := 0
	for _, s := range srcs {
		for _, h := range g.Dijkstra(s, nil).Hops {
			diam = max(diam, int(h))
		}
	}
	return diam
}
