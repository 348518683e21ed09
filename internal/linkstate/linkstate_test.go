package linkstate

import (
	"testing"

	"rofl/internal/sim"
	"rofl/internal/topology"
)

// ring4 builds 0-1-2-3-0 with unit weights.
func ring4() *topology.Graph {
	g := topology.NewGraph(4)
	for i := 0; i < 4; i++ {
		g.AddNode()
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	return g
}

func newMap(t *testing.T) (*Map, sim.Metrics) {
	t.Helper()
	m := sim.NewMetrics()
	return New(ring4(), m), m
}

func TestShortestPathsAllUp(t *testing.T) {
	ls, _ := newMap(t)
	if h := ls.Hops(0, 2); h != 2 {
		t.Fatalf("hops(0,2) = %d want 2", h)
	}
	if h := ls.Hops(0, 1); h != 1 {
		t.Fatalf("hops(0,1) = %d", h)
	}
	nh, ok := ls.NextHop(0, 1)
	if !ok || nh != 1 {
		t.Fatalf("next hop = %d ok=%v", nh, ok)
	}
	if lat := ls.Latency(0, 2); lat != 2 {
		t.Fatalf("latency = %v", lat)
	}
	if !ls.Reachable(0, 3) {
		t.Fatal("all up: everything reachable")
	}
}

func TestFailLinkReroutes(t *testing.T) {
	ls, m := newMap(t)
	before := ls.Hops(0, 1)
	ls.FailLink(0, 1)
	if ls.Up(0, 1) || ls.Up(1, 0) {
		t.Fatal("link must be down in both directions")
	}
	after := ls.Hops(0, 1)
	if before != 1 || after != 3 {
		t.Fatalf("hops before=%d after=%d want 1 then 3", before, after)
	}
	if m.Counter(msgLinkState) == 0 {
		t.Fatal("LSA flood must be charged")
	}
	// Idempotent re-fail: no double flood.
	c := m.Counter(msgLinkState)
	ls.FailLink(1, 0)
	if m.Counter(msgLinkState) != c {
		t.Fatal("re-failing same link must be a no-op")
	}
	ls.RestoreLink(0, 1)
	if ls.Hops(0, 1) != 1 {
		t.Fatal("restore must reinstate direct path")
	}
	ls.RestoreLink(0, 1) // idempotent
}

func TestFailNode(t *testing.T) {
	ls, _ := newMap(t)
	ls.FailNode(1)
	if ls.NodeUp(1) {
		t.Fatal("node must be down")
	}
	if ls.Reachable(0, 1) || ls.Reachable(1, 0) {
		t.Fatal("failed node unreachable")
	}
	if h := ls.Hops(0, 2); h != 2 {
		t.Fatalf("0->2 must route around: %d", h)
	}
	if ls.Path(0, 1) != nil || ls.Hops(0, 1) != -1 || ls.Latency(0, 1) != -1 {
		t.Fatal("queries to failed node must fail cleanly")
	}
	ls.restoreNode(1)
	if !ls.Reachable(0, 1) {
		t.Fatal("restored node reachable")
	}
}

func TestPartitionAndComponent(t *testing.T) {
	ls, _ := newMap(t)
	ls.FailLink(0, 1)
	ls.FailLink(2, 3)
	if ls.Reachable(0, 2) {
		t.Fatal("0 and 2 must be partitioned")
	}
	if !ls.Reachable(1, 2) || !ls.Reachable(0, 3) {
		t.Fatal("halves must stay internally connected")
	}
	c0 := ls.Component(0)
	if len(c0) != 2 || c0[0] != 0 || c0[1] != 3 {
		t.Fatalf("component(0) = %v", c0)
	}
	ls.FailNode(0)
	if ls.Component(0) != nil {
		t.Fatal("component of failed node is nil")
	}
}

func TestFailureInvalidatesCachedPaths(t *testing.T) {
	ls, _ := newMap(t)
	_, _ = ls.Hops(0, 2), ls.Hops(1, 2) // warm the cache
	ls.FailLink(1, 2)
	if h := ls.Hops(0, 2); h != 2 {
		// still 2 via 3: 0-3-2
		t.Fatalf("post-failure hops = %d want 2", h)
	}
	if h := ls.Hops(1, 2); h != 3 {
		t.Fatalf("1->2 must detour: %d", h)
	}
}

func TestNextHopUnreachable(t *testing.T) {
	ls, _ := newMap(t)
	ls.FailNode(1)
	ls.FailNode(3)
	if _, ok := ls.NextHop(0, 2); ok {
		t.Fatal("no next hop across partition")
	}
	if _, ok := ls.NextHop(0, 0); ok {
		t.Fatal("no next hop to self")
	}
}

// NextHop climbs the tree instead of building the path; it must name
// the router Path puts second, and none exactly when Path has no second
// router. Parents is the same tree: climbing it from dst must retrace
// Path backwards to src. Both over every ordered pair of a full ISP
// topology: all-up, with
// a backbone link down, and with a backbone router down and an access
// router cut off (alive, but in a partition of its own).
func TestNextHopMatchesPath(t *testing.T) {
	isp := topology.GenISP(topology.AS1221)
	ls := New(isp.Graph, sim.NewMetrics())
	check := func(state string) {
		t.Helper()
		n := topology.NodeID(isp.Graph.NumNodes())
		for a := topology.NodeID(0); a < n; a++ {
			for b := topology.NodeID(0); b < n; b++ {
				p := ls.Path(a, b)
				hop, ok := ls.NextHop(a, b)
				if ok != (len(p) >= 2) || (ok && hop != p[1]) {
					t.Fatalf("%s: NextHop(%d,%d) = (%d,%v), Path = %v", state, a, b, hop, ok, p)
				}
				if p == nil {
					continue
				}
				parent, n, i := ls.Parents(a), b, len(p)-1
				for ; i > 0 && n == p[i]; i-- {
					n = parent[n]
				}
				if i > 0 || n != a {
					t.Fatalf("%s: climbing Parents(%d) from %d stops at %d, Path = %v", state, a, b, n, p)
				}
			}
		}
	}
	check("all up")
	bb := isp.Backbone[0]
	ls.FailLink(bb, isp.Graph.Neighbors(bb)[0].To)
	check("one link down")
	ls.FailNode(isp.Backbone[1])
	cut := isp.Access[0]
	for _, e := range isp.Graph.Neighbors(cut) {
		ls.FailLink(cut, e.To)
	}
	if ls.Reachable(bb, cut) || !ls.NodeUp(cut) {
		t.Fatal("the cut-off access router should be alive and unreachable")
	}
	check("one link and one node down, one router cut off")

	src, dst := isp.Access[1], isp.Access[len(isp.Access)-1]
	if allocs := testing.AllocsPerRun(100, func() { ls.NextHop(src, dst) }); allocs != 0 {
		t.Fatalf("NextHop allocates: %v allocs/run", allocs)
	}
}

func TestStringRenders(t *testing.T) {
	ls, _ := newMap(t)
	ls.FailLink(0, 1)
	ls.FailNode(2)
	if ls.String() == "" {
		t.Fatal("String must render")
	}
}
