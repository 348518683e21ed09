package composite

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rofl/internal/canon"
	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// smallWorld builds a 10-AS hierarchy: 2 tier-1s peered, 3 tier-2s, 5
// stubs.
func smallWorld(t *testing.T) (*Global, *topology.ASGraph) {
	t.Helper()
	g := topology.GenAS(topology.ASGenConfig{
		Tier1: 2, Tier2: 3, Stubs: 5,
		Hosts: 500, ZipfS: 1.1, PeerProb: 0.3, BackupProb: 0.2, Seed: 7,
	})
	return New(g, sim.NewMetrics()), g
}

// joinAcross joins n hosts spread over the stub ASes' access routers.
func joinAcross(t *testing.T, gl *Global, g *topology.ASGraph, n int) []ident.ID {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	stubs := g.Stubs()
	var ids []ident.ID
	for i := 0; i < n; i++ {
		id := ident.FromString(fmt.Sprintf("comp-%d", i))
		as := stubs[rng.Intn(len(stubs))]
		d, _ := gl.Domain(as)
		at := d.ISP.Access[rng.Intn(len(d.ISP.Access))]
		if _, err := gl.JoinHost(id, as, at, canon.Multihomed); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestCompositeJoinChargesBothLayers(t *testing.T) {
	gl, g := smallWorld(t)
	stubs := g.Stubs()
	d, _ := gl.Domain(stubs[0])
	res, err := gl.JoinHost(ident.FromString("first"), stubs[0], d.ISP.Access[0], canon.Multihomed)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntraMsgs <= 0 {
		t.Fatalf("intra msgs = %d", res.IntraMsgs)
	}
	// The very first interdomain join has an empty ring, so InterMsgs may
	// be zero; a second host from a different AS must pay interdomain.
	d2, _ := gl.Domain(stubs[1])
	res2, err := gl.JoinHost(ident.FromString("second"), stubs[1], d2.ISP.Access[0], canon.Multihomed)
	if err != nil {
		t.Fatal(err)
	}
	if res2.InterMsgs <= 0 {
		t.Fatalf("second join inter msgs = %d", res2.InterMsgs)
	}
	if gl.Metrics.Counter(MsgBorderFlood) == 0 {
		t.Fatal("border flood not charged")
	}
	if len(gl.hostAS) != 2 {
		t.Fatalf("hosts = %d", len(gl.hostAS))
	}
}

func TestCompositeIntraASStaysHome(t *testing.T) {
	gl, g := smallWorld(t)
	stub := g.Stubs()[0]
	d, _ := gl.Domain(stub)
	a := ident.FromString("local-a")
	b := ident.FromString("local-b")
	if _, err := gl.JoinHost(a, stub, d.ISP.Access[0], canon.Multihomed); err != nil {
		t.Fatal(err)
	}
	if _, err := gl.JoinHost(b, stub, d.ISP.Access[5], canon.Multihomed); err != nil {
		t.Fatal(err)
	}
	res, err := gl.Route(a, b)
	if err != nil || !res.Delivered {
		t.Fatalf("route: %+v %v", res, err)
	}
	if !res.StayedHome || res.InterHops != 0 || len(res.ASPath) != 1 {
		t.Fatalf("intra-AS traffic left home: %+v", res)
	}
}

func TestCompositeCrossASRouting(t *testing.T) {
	gl, g := smallWorld(t)
	ids := joinAcross(t, gl, g, 40)
	if err := gl.CheckAll(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	crossSeen := false
	for i := 0; i < 60; i++ {
		src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if src == dst {
			continue
		}
		res, err := gl.Route(src, dst)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		if !res.Delivered {
			t.Fatal("not delivered")
		}
		srcAS := gl.hostAS[src]
		dstAS := gl.hostAS[dst]
		if srcAS != dstAS {
			crossSeen = true
			if res.InterHops <= 0 {
				t.Fatalf("cross-AS route with no AS hops: %+v", res)
			}
			if res.IntraHops < 0 {
				t.Fatalf("negative intra hops: %+v", res)
			}
			if res.ASPath[0] != srcAS || res.ASPath[len(res.ASPath)-1] != dstAS {
				t.Fatalf("AS path endpoints wrong: %v (src %d dst %d)", res.ASPath, srcAS, dstAS)
			}
		}
	}
	if !crossSeen {
		t.Fatal("workload produced no cross-AS pairs")
	}
}

func TestCompositeErrors(t *testing.T) {
	gl, g := smallWorld(t)
	if _, err := gl.JoinHost(ident.FromString("x"), topology.ASN(g.NumASes()+5), 0, canon.Multihomed); !errors.Is(err, ErrUnknownAS) {
		t.Fatalf("unknown AS: %v", err)
	}
	if _, err := gl.Route(ident.FromString("ghost"), ident.FromString("ghost2")); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("unknown host: %v", err)
	}
}

func TestCompositeRollbackOnDuplicateExternal(t *testing.T) {
	gl, g := smallWorld(t)
	stubs := g.Stubs()
	id := ident.FromString("dup")
	d0, _ := gl.Domain(stubs[0])
	if _, err := gl.JoinHost(id, stubs[0], d0.ISP.Access[0], canon.Multihomed); err != nil {
		t.Fatal(err)
	}
	// Same identifier joining from another AS: the external join must
	// fail and the internal join must be rolled back.
	d1, _ := gl.Domain(stubs[1])
	if _, err := gl.JoinHost(id, stubs[1], d1.ISP.Access[0], canon.Multihomed); err == nil {
		t.Fatal("duplicate external join must fail")
	}
	if err := d1.Net.CheckRing(); err != nil {
		t.Fatalf("rollback left AS %d ring broken: %v", stubs[1], err)
	}
	if _, ok := d1.Net.HostingRouter(id); ok {
		t.Fatal("rollback left the identifier resident")
	}
	if err := gl.CheckAll(); err != nil {
		t.Fatal(err)
	}
}

func TestCompositeDeterministic(t *testing.T) {
	run := func() int {
		g := topology.GenAS(topology.ASGenConfig{
			Tier1: 2, Tier2: 3, Stubs: 5,
			Hosts: 500, ZipfS: 1.1, PeerProb: 0.3, BackupProb: 0.2, Seed: 7,
		})
		gl := New(g, sim.NewMetrics())
		total := 0
		rng := rand.New(rand.NewSource(3))
		stubs := g.Stubs()
		for i := 0; i < 15; i++ {
			id := ident.FromString(fmt.Sprintf("det-%d", i))
			as := stubs[rng.Intn(len(stubs))]
			d, _ := gl.Domain(as)
			at := d.ISP.Access[rng.Intn(len(d.ISP.Access))]
			res, err := gl.JoinHost(id, as, at, canon.Multihomed)
			if err != nil {
				t.Fatal(err)
			}
			total += res.IntraMsgs + res.InterMsgs
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("composite joins not deterministic: %d vs %d", a, b)
	}
}
