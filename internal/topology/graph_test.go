package topology

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// line builds 0-1-2-...-(n-1) with unit weights.
func line(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	return g
}

func TestAddEdgeMergesParallel(t *testing.T) {
	g := NewGraph(2)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 5)
	g.AddEdge(a, b, 3) // lighter wins
	g.AddEdge(a, b, 9) // heavier ignored
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d want 1 (merged)", g.NumEdges())
	}
	if w := g.Neighbors(a)[0].Weight; w != 3 {
		t.Fatalf("weight = %v want 3", w)
	}
	if w := g.Neighbors(b)[0].Weight; w != 3 {
		t.Fatalf("reverse weight = %v want 3", w)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	g := NewGraph(1)
	a := g.AddNode()
	defer func() {
		if recover() == nil {
			t.Fatal("self loop should panic")
		}
	}()
	g.AddEdge(a, a, 1)
}

func TestDijkstraLine(t *testing.T) {
	g := line(5)
	spt := g.Dijkstra(0, nil)
	for i := 0; i < 5; i++ {
		if spt.Dist[i] != float64(i) || spt.Hops[i] != int32(i) {
			t.Fatalf("node %d: dist=%v hops=%d", i, spt.Dist[i], spt.Hops[i])
		}
	}
	path := spt.PathTo(4)
	if len(path) != 5 || path[0] != 0 || path[4] != 4 {
		t.Fatalf("path = %v", path)
	}
}

func TestDijkstraPrefersLighterPath(t *testing.T) {
	// 0-1-2 weight 1 each vs direct 0-2 weight 3: tie broken by hops.
	g := NewGraph(3)
	n0, n1, n2 := g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(n0, n1, 1)
	g.AddEdge(n1, n2, 1)
	g.AddEdge(n0, n2, 3)
	spt := g.Dijkstra(n0, nil)
	if spt.Dist[n2] != 2 {
		t.Fatalf("dist = %v want 2 (two-hop path is lighter)", spt.Dist[n2])
	}
	// Now make them equal weight; fewer hops should win the tie.
	g2 := NewGraph(3)
	m0, m1, m2 := g2.AddNode(), g2.AddNode(), g2.AddNode()
	g2.AddEdge(m0, m1, 1)
	g2.AddEdge(m1, m2, 1)
	g2.AddEdge(m0, m2, 2)
	spt2 := g2.Dijkstra(m0, nil)
	if spt2.Hops[m2] != 1 {
		t.Fatalf("equal-cost tie should prefer fewer hops, got %d", spt2.Hops[m2])
	}
}

func TestDijkstraWithFilter(t *testing.T) {
	g := line(4)
	down := func(a, b NodeID) bool {
		return !(a == 1 && b == 2) && !(a == 2 && b == 1)
	}
	spt := g.Dijkstra(0, down)
	if spt.Reachable(3) {
		t.Fatal("cutting 1-2 must disconnect 3")
	}
	if spt.PathTo(3) != nil {
		t.Fatal("unreachable path must be nil")
	}
	if !spt.Reachable(1) {
		t.Fatal("1 still reachable")
	}
	if !math.IsInf(spt.Dist[3], 1) {
		t.Fatal("unreachable dist must be +Inf")
	}
}

func TestComponentAndConnected(t *testing.T) {
	g := line(4)
	if !g.Connected(nil) {
		t.Fatal("line is connected")
	}
	cut := func(a, b NodeID) bool {
		return !(a == 1 && b == 2) && !(a == 2 && b == 1)
	}
	if g.Connected(cut) {
		t.Fatal("cut line is disconnected")
	}
	comp := g.Component(0, cut)
	if len(comp) != 2 || comp[0] != 0 || comp[1] != 1 {
		t.Fatalf("component = %v", comp)
	}
	comp2 := g.Component(3, cut)
	if len(comp2) != 2 || comp2[0] != 2 {
		t.Fatalf("component = %v", comp2)
	}
}

func TestEmptyGraphConnected(t *testing.T) {
	if !NewGraph(0).Connected(nil) {
		t.Fatal("empty graph is vacuously connected")
	}
}

func TestPoPAssignment(t *testing.T) {
	g := line(4)
	g.SetPoP(0, 7)
	g.SetPoP(1, 7)
	g.SetPoP(2, 9)
	if g.PoP(3) != -1 {
		t.Fatal("unassigned PoP should be -1")
	}
	members := g.PoPMembers()
	if len(members[7]) != 2 || len(members[9]) != 1 {
		t.Fatalf("members = %v", members)
	}
}

func TestDiameterHops(t *testing.T) {
	g := line(6)
	if d := g.DiameterHops(0, nil); d != 5 {
		t.Fatalf("diameter = %d want 5", d)
	}
	rng := rand.New(rand.NewSource(1))
	if d := g.DiameterHops(3, rng); d < 1 || d > 5 {
		t.Fatalf("sampled diameter = %d out of range", d)
	}
}

func TestGenISPShape(t *testing.T) {
	for _, cfg := range EvalISPs() {
		isp := GenISP(cfg)
		g := isp.Graph
		if g.NumNodes() != cfg.Routers {
			t.Fatalf("%s: routers = %d want %d", cfg.Name, g.NumNodes(), cfg.Routers)
		}
		if !g.Connected(nil) {
			t.Fatalf("%s: generated ISP must be connected", cfg.Name)
		}
		if len(isp.Backbone)+len(isp.Access) != cfg.Routers {
			t.Fatalf("%s: backbone+access != routers", cfg.Name)
		}
		// Every access router hangs off its PoP's backbone.
		for _, a := range isp.Access {
			if g.Degree(a) < 1 {
				t.Fatalf("%s: access router %d disconnected", cfg.Name, a)
			}
		}
		// Hosts sum exactly.
		total := 0
		for _, h := range isp.HostsAt {
			total += h
		}
		if total != cfg.Hosts {
			t.Fatalf("%s: hosts = %d want %d", cfg.Name, total, cfg.Hosts)
		}
		// Diameter in a Rocketfuel-plausible range (paper joins complete
		// in ~4x diameter messages; these ISPs have diameter ~10).
		d := g.DiameterHops(20, rand.New(rand.NewSource(9)))
		if d < 3 || d > 40 {
			t.Fatalf("%s: diameter %d implausible", cfg.Name, d)
		}
	}
}

func TestGenISPDeterministic(t *testing.T) {
	a := GenISP(AS3967)
	b := GenISP(AS3967)
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed must generate identical topology")
	}
	for i := range a.HostsAt {
		if a.HostsAt[i] != b.HostsAt[i] {
			t.Fatal("host spread must be deterministic")
		}
	}
}

func TestGenISPInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("infeasible config should panic")
		}
	}()
	GenISP(ISPConfig{Name: "bad", Routers: 3, PoPs: 4, BackbonePerPoP: 1})
}

func TestZipfSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	out := zipfSpread(1000, 10, 1.2, rng)
	sum := 0
	max := 0
	for _, v := range out {
		if v < 0 {
			t.Fatal("negative bin")
		}
		sum += v
		if v > max {
			max = v
		}
	}
	if sum != 1000 {
		t.Fatalf("sum = %d want 1000", sum)
	}
	if max < 200 {
		t.Fatalf("Zipf head too light: max=%d", max)
	}
	if zipfSpread(10, 0, 1.2, rng) != nil {
		t.Fatal("zero bins should return nil")
	}
}

// refDijkstra is Dijkstra as it stood on container/heap, each item boxed
// in an interface: the reference the monomorphic heap is held to.
func refDijkstra(g *Graph, src NodeID, up LinkFilter) SPT {
	n := g.NumNodes()
	t := SPT{
		Src:    src,
		Dist:   make([]float64, n),
		Hops:   make([]int32, n),
		Parent: make([]NodeID, n),
	}
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Parent[i] = -1
		t.Hops[i] = -1
	}
	t.Dist[src] = 0
	t.Hops[src] = 0
	pq := &refHeap{{node: src, dist: 0}}
	done := make([]bool, n)
	for pq.Len() > 0 {
		u := heap.Pop(pq).(distItem).node
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
				heap.Push(pq, distItem{node: e.To, dist: nd})
			}
		}
	}
	return t
}

type refHeap []distItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestDijkstraMatchesReference: the monomorphic heap pops equal distances
// in container/heap's order, so every tree of every evaluation ISP, from
// every source, healthy and with links and routers failed, is the
// reference's to the last parent, and each node's First is the first hop
// read off the reference's parents.
func TestDijkstraMatchesReference(t *testing.T) {
	for _, cfg := range EvalISPs() {
		g := GenISP(cfg).Graph
		rng := rand.New(rand.NewSource(cfg.Seed))
		failedNode := make([]bool, g.NumNodes())
		failedLink := map[[2]NodeID]bool{}
		for range g.NumNodes() / 20 {
			failedNode[rng.Intn(g.NumNodes())] = true
			a := NodeID(rng.Intn(g.NumNodes()))
			if nb := g.Neighbors(a); len(nb) > 0 {
				b := nb[rng.Intn(len(nb))].To
				failedLink[[2]NodeID{min(a, b), max(a, b)}] = true
			}
		}
		underFailures := func(a, b NodeID) bool {
			return !failedNode[a] && !failedNode[b] && !failedLink[[2]NodeID{min(a, b), max(a, b)}]
		}
		for _, up := range []LinkFilter{nil, underFailures} {
			for src := range NodeID(g.NumNodes()) {
				got, want := g.Dijkstra(src, up), refDijkstra(g, src, up)
				if !slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.Hops, want.Hops) || !slices.Equal(got.Parent, want.Parent) {
					t.Fatalf("%s from %d (failures %v): tree differs from the reference", cfg.Name, src, up != nil)
				}
				for dst, first := range got.First {
					hop, n := NodeID(-1), NodeID(dst)
					for ; n != src && n != -1; n = want.Parent[n] {
						hop = n
					}
					if n == -1 {
						hop = -1 // unreachable
					}
					if first != int32(hop) {
						t.Fatalf("%s from %d (failures %v): First[%d] = %d, the reference's parents give %d", cfg.Name, src, up != nil, dst, first, hop)
					}
				}
			}
		}
	}
}

// TestDijkstraAllocations: a tree costs its three result slices, the
// done marks and one heap, not an allocation per relaxed edge.
func TestDijkstraAllocations(t *testing.T) {
	g := GenISP(as1239).Graph
	src := NodeID(0)
	allocs := testing.AllocsPerRun(20, func() {
		g.Dijkstra(src, nil)
		src = (src + 1) % NodeID(g.NumNodes())
	})
	if allocs > 5 {
		t.Fatalf("Dijkstra: %.1f allocations, want at most 5", allocs)
	}
}

func BenchmarkDijkstraAS1239(b *testing.B) {
	isp := GenISP(as1239)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		isp.Graph.Dijkstra(NodeID(i%isp.Graph.NumNodes()), nil)
	}
}
