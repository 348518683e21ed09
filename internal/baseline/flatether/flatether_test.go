package flatether

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

func TestJoinFloodsEverything(t *testing.T) {
	n, isp := testNet(t)
	msgs, err := n.JoinHost(ident.FromString("h"), isp.Access[0])
	if err != nil {
		t.Fatal(err)
	}
	if msgs != 2*isp.Graph.NumEdges() {
		t.Fatalf("join msgs = %d want %d", msgs, 2*isp.Graph.NumEdges())
	}
	if n.Metrics.Counter(MsgJoin) != int64(msgs) {
		t.Fatal("counter mismatch")
	}
	if _, err := n.JoinHost(ident.FromString("h"), isp.Access[1]); !errors.Is(err, errDuplicateID) {
		t.Fatalf("dup join: %v", err)
	}
}
