package ospfhost

import (
	"errors"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

func testNet(t *testing.T) (*Network, *topology.ISP) {
	t.Helper()
	isp := topology.GenISP(topology.ISPConfig{
		Name: "t", Routers: 40, PoPs: 6, BackbonePerPoP: 2, PoPDegree: 2,
		IntraPoPDelay: 0.5, InterPoPDelay: 5, Hosts: 100, ZipfS: 1.2, Seed: 7,
	})
	return New(isp.Graph, sim.NewMetrics()), isp
}

func TestRouteAndTraversals(t *testing.T) {
	n, isp := testNet(t)
	id := ident.FromString("h")
	n.Attach(id, isp.Access[3])
	h, err := n.Route(isp.Backbone[0], id)
	if err != nil {
		t.Fatal(err)
	}
	if h <= 0 {
		t.Fatalf("hops = %d", h)
	}
	var sum int64
	for _, c := range n.Traversals() {
		sum += c
	}
	if sum != int64(h) {
		t.Fatalf("traversals = %d want %d", sum, h)
	}
	if n.Metrics.Counter(msgData) != int64(h) {
		t.Fatal("data counter mismatch")
	}
}

func TestRouteUnknown(t *testing.T) {
	n, isp := testNet(t)
	if _, err := n.Route(isp.Access[0], ident.FromString("ghost")); !errors.Is(err, errUnknownID) {
		t.Fatalf("want ErrUnknownID, got %v", err)
	}
}

func TestRankByLoad(t *testing.T) {
	n, isp := testNet(t)
	for i := 0; i < 20; i++ {
		id := ident.FromUint64(uint64(i + 1))
		n.Attach(id, isp.Access[i%len(isp.Access)])
		if _, err := n.Route(isp.Access[(i+7)%len(isp.Access)], id); err != nil {
			t.Fatal(err)
		}
	}
	rank := n.RankByLoad()
	if len(rank) != isp.Graph.NumNodes() {
		t.Fatalf("rank covers %d routers", len(rank))
	}
	tr := n.Traversals()
	for i := 1; i < len(rank); i++ {
		if tr[rank[i-1]] < tr[rank[i]] {
			t.Fatal("rank not descending")
		}
	}
}
