// Global: the paper's complete two-level architecture in one program —
// every AS runs its own virtual-ring network over its own router
// topology, border routers relay external joins up the provider
// hierarchy, and packets compose intradomain and interdomain legs. The
// isolation corollary is visible directly: intra-AS packets never touch
// the interdomain layer.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rofl"
)

func main() {
	// A small Internet: 2 tier-1s, 4 transits, 10 stubs.
	asGraph := rofl.GenAS(rofl.ASGenConfig{
		Tier1: 2, Tier2: 4, Stubs: 10,
		Hosts: 1000, ZipfS: 1.1, PeerProb: 0.3, BackupProb: 0.2, Seed: 11,
	})
	world := rofl.NewGlobal(asGraph, rofl.NewMetrics())
	d0, _ := world.Domain(0)
	fmt.Printf("built %d ASes, each with its own %d-router network and border routers\n\n",
		asGraph.NumASes(), d0.ISP.Graph.NumNodes())

	// Join hosts across the stub ASes.
	rng := rand.New(rand.NewSource(4))
	stubs := asGraph.Stubs()
	type host struct {
		id rofl.ID
		as rofl.ASN
	}
	var hosts []host
	for i := 0; i < 30; i++ {
		id := rofl.IDFromString(fmt.Sprintf("global-host-%d", i))
		as := stubs[rng.Intn(len(stubs))]
		d, _ := world.Domain(as)
		at := d.ISP.Access[rng.Intn(len(d.ISP.Access))]
		res, err := world.JoinHost(id, as, at, rofl.Multihomed)
		if err != nil {
			log.Fatalf("join: %v", err)
		}
		if i < 3 {
			fmt.Printf("host %d joined AS %d at router %d: %d intra msgs (ring splice + border relay), %d inter msgs (per-level joins)\n",
				i, as, at, res.IntraMsgs, res.InterMsgs)
		}
		hosts = append(hosts, host{id, as})
	}
	if err := world.CheckAll(); err != nil {
		log.Fatalf("invariants: %v", err)
	}
	fmt.Println("\nall internal rings, interdomain rings, and isolation state verified ✓")

	// Route: intra-AS and cross-AS.
	intra, cross := 0, 0
	var intraHops, crossIntra, crossInter float64
	for i := 0; i < 200; i++ {
		a := hosts[rng.Intn(len(hosts))]
		b := hosts[rng.Intn(len(hosts))]
		if a.id == b.id {
			continue
		}
		res, err := world.Route(a.id, b.id)
		if err != nil {
			log.Fatalf("route: %v", err)
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
	fmt.Printf("\n%d intra-AS packets: avg %.1f router hops, ZERO interdomain involvement (isolation corollary)\n",
		intra, intraHops/float64(intra))
	fmt.Printf("%d cross-AS packets: avg %.1f router hops at the edges + %.1f AS-level hops across the hierarchy\n",
		cross, crossIntra/float64(cross), crossInter/float64(cross))

	// One concrete cross-AS path, end to end.
	for _, a := range hosts {
		for _, b := range hosts {
			if a.as == b.as {
				continue
			}
			res, _ := world.Route(a.id, b.id)
			fmt.Printf("\nexample: AS %d → AS %d crossed ASes %v (%d AS hops, %d edge router hops)\n",
				a.as, b.as, res.ASPath, res.InterHops, res.IntraHops)
			return
		}
	}
}
