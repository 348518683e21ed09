// Interdomain: multi-AS ROFL with the paper's policy machinery — join
// strategies, the isolation property, multihoming failover, and the
// paper's Figure 3 hierarchy reproduced literally.
package main

import (
	"fmt"
	"log"

	"rofl"
	"rofl/internal/ident"
	"rofl/internal/topology"
)

func main() {
	fmt.Println("== paper Figure 3: the five-AS hierarchy ==")
	figure3()
	fmt.Println("\n== multihoming failover (§2.3) ==")
	multihoming()
	fmt.Println("\n== join strategies (§6.3) ==")
	strategies()
}

// figure3 rebuilds the exact example of the paper's Figure 3 and prints
// the per-level successors of identifier 8.
func figure3() {
	//      1
	//     / \
	//    2   3
	//   / \
	//  4   5
	g := topology.NewASGraph(6)
	g.SetRelation(2, 1, topology.RelProvider)
	g.SetRelation(3, 1, topology.RelProvider)
	g.SetRelation(4, 2, topology.RelProvider)
	g.SetRelation(5, 2, topology.RelProvider)
	for a, tier := range map[rofl.ASN]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3} {
		g.SetTier(a, tier)
	}
	in := rofl.NewInternet(g, rofl.NewMetrics(), rofl.DefaultInternetOptions())
	join := func(v uint64, at rofl.ASN) rofl.ID {
		id := ident.FromUint64(v)
		if _, err := in.Join(id, at, rofl.Multihomed); err != nil {
			log.Fatal(err)
		}
		return id
	}
	id8 := join(8, 4)
	join(20, 4)
	join(16, 5)
	join(14, 3)

	fmt.Println("identifier 8 (hosted in AS 4) keeps one successor per level:")
	vn := in.AS(4).Resident(id8)
	for _, root := range vn.Roots() {
		s, _ := vn.Succ(root)
		fmt.Printf("  level %-12v → successor %d (in AS %d)\n", root, s.ID.Low64(), s.AS)
	}

	// The isolation property: 8 → 16 (both under AS 2) never touches
	// AS 1 or AS 3.
	res, err := in.Route(id8, ident.FromUint64(16))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routing 8 → 16 traverses ASes %v (stays inside subtree of AS 2: %v)\n",
		res.Traversed, res.StrictlyIsolated)
}

// multihoming shows traffic shifting automatically when a multihomed
// stub loses an access link.
func multihoming() {
	g := topology.NewASGraph(5)
	g.SetRelation(2, 1, topology.RelProvider)
	g.SetRelation(3, 1, topology.RelProvider)
	g.SetRelation(4, 2, topology.RelProvider) // primary
	g.SetRelation(4, 3, topology.RelProvider) // second provider
	for a, tier := range map[rofl.ASN]int{1: 1, 2: 2, 3: 2, 4: 3} {
		g.SetTier(a, tier)
	}
	in := rofl.NewInternet(g, rofl.NewMetrics(), rofl.DefaultInternetOptions())
	server := rofl.IDFromString("multihomed-server")
	client := rofl.IDFromString("remote-client")
	if _, err := in.Join(server, 4, rofl.Multihomed); err != nil {
		log.Fatal(err)
	}
	if _, err := in.Join(client, 3, rofl.Multihomed); err != nil {
		log.Fatal(err)
	}
	res, _ := in.Route(client, server)
	fmt.Printf("before failure: client → server via ASes %v\n", res.Traversed)
	in.FailASLink(4, 3) // the access link the traffic was using
	res, err := in.Route(client, server)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after the 4–3 access link fails: via ASes %v (shifted to the other provider, no rejoin needed)\n", res.Traversed)
}

// strategies compares the four join modes on a generated Internet.
func strategies() {
	gen := rofl.DefaultASGen()
	gen.Tier1, gen.Tier2, gen.Stubs, gen.Hosts = 4, 20, 80, 2000
	g := rofl.GenAS(gen)
	stubs := g.Stubs()
	for _, s := range []rofl.Strategy{rofl.Ephemeral, rofl.SingleHomed, rofl.Multihomed, rofl.Peering} {
		in := rofl.NewInternet(g, rofl.NewMetrics(), rofl.DefaultInternetOptions())
		total, levels := 0, 0
		const joins = 25
		for i := 0; i < joins; i++ {
			id := rofl.IDFromString(fmt.Sprintf("%v-%d", s, i))
			res, err := in.Join(id, stubs[(i*7)%len(stubs)], s)
			if err != nil {
				log.Fatal(err)
			}
			total += res.Msgs
			levels += res.Levels
		}
		fmt.Printf("  %-15v avg %3d msgs/join across %2d ring levels\n", s, total/joins, levels/joins)
	}
}
