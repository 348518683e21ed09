package vring

import (
	"fmt"
	"math/rand"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// TestChurnSoakMultiSeed is the long-form convergence soak: several
// independent seeds, hundreds of interleaved churn events each, with the
// ring checker run after every single event — the closest laptop-scale
// analogue of the paper's "10 million partitions, converged in every
// case" validation. Runs abbreviated under -short.
func TestChurnSoakMultiSeed(t *testing.T) {
	seeds := []int64{101, 202, 303, 404, 505}
	steps := 250
	if testing.Short() {
		seeds = seeds[:2]
		steps = 80
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			soakOneSeed(t, seed, steps)
		})
	}
}

func soakOneSeed(t *testing.T, seed int64, steps int) {
	isp := topology.GenISP(topology.ISPConfig{
		Name: fmt.Sprintf("soak-%d", seed), Routers: 36, PoPs: 6, BackbonePerPoP: 2,
		PoPDegree: 2, IntraPoPDelay: 0.5, InterPoPDelay: 4, Hosts: 80, ZipfS: 1.2, Seed: seed,
	})
	m := sim.NewMetrics()
	opts := DefaultOptions()
	opts.Seed = seed
	n := New(isp.Graph, m, opts)
	rng := rand.New(rand.NewSource(seed))

	alive := map[ident.ID]bool{}
	ephemeral := map[ident.ID]bool{}
	var list []ident.ID
	refresh := func() {
		list = list[:0]
		for id := range alive {
			list = append(list, id)
		}
	}
	next := 0
	check := func(step int, what string) {
		if err := n.CheckRing(); err != nil {
			t.Fatalf("seed %d step %d after %s: %v", seed, step, what, err)
		}
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(12); {
		case op < 4: // stable join
			id := ident.FromString(fmt.Sprintf("soak-%d-%d", seed, next))
			next++
			at := isp.Access[rng.Intn(len(isp.Access))]
			if !n.LS.NodeUp(at) {
				continue
			}
			if _, err := n.JoinHost(id, at); err != nil {
				t.Fatalf("step %d join: %v", step, err)
			}
			alive[id] = true
			check(step, "join")
		case op < 5: // ephemeral join
			id := ident.FromString(fmt.Sprintf("soak-eph-%d-%d", seed, next))
			next++
			at := isp.Access[rng.Intn(len(isp.Access))]
			if !n.LS.NodeUp(at) {
				continue
			}
			if _, err := n.JoinEphemeral(id, at); err != nil {
				t.Fatalf("step %d eph join: %v", step, err)
			}
			alive[id] = true
			ephemeral[id] = true
			check(step, "ephemeral join")
		case op < 8: // removal (leave or crash)
			refresh()
			if len(list) == 0 {
				continue
			}
			id := list[rng.Intn(len(list))]
			var err error
			if rng.Intn(2) == 0 {
				err = n.LeaveHost(id)
			} else {
				err = n.FailHost(id)
			}
			if err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
			delete(alive, id)
			delete(ephemeral, id)
			check(step, "removal")
		case op < 9: // mobility
			refresh()
			if len(list) == 0 {
				continue
			}
			id := list[rng.Intn(len(list))]
			to := isp.Access[rng.Intn(len(isp.Access))]
			if !n.LS.NodeUp(to) {
				continue
			}
			if _, err := n.MoveHost(id, to); err != nil {
				t.Fatalf("step %d move: %v", step, err)
			}
			check(step, "move")
		case op < 10: // PoP partition + heal
			pop := rng.Intn(6)
			cut := n.PartitionPoP(pop)
			n.RepairPartitions()
			check(step, "partition split")
			for _, l := range cut {
				n.RestoreLink(l[0], l[1])
			}
			n.RepairPartitions()
			check(step, "partition merge")
		case op < 11: // link flap
			g := isp.Graph
			a := RouterID(rng.Intn(g.NumNodes()))
			if g.Degree(a) == 0 {
				continue
			}
			e := g.Neighbors(a)[rng.Intn(g.Degree(a))]
			n.FailLink(a, e.To)
			n.RepairPartitions()
			check(step, "link fail")
			n.RestoreLink(a, e.To)
			n.RepairPartitions()
			check(step, "link restore")
		default: // data-plane probe: everything alive and reachable routes
			refresh()
			if len(list) == 0 {
				continue
			}
			id := list[rng.Intn(len(list))]
			host, ok := n.HostingRouter(id)
			if !ok {
				t.Fatalf("step %d: %s lost from oracle", step, id.Short())
			}
			from := isp.Backbone[rng.Intn(len(isp.Backbone))]
			if !n.LS.NodeUp(from) || !n.LS.Reachable(from, host) {
				continue
			}
			res, err := n.Route(from, id)
			if err != nil || !res.Delivered {
				t.Fatalf("step %d: route to %s: %+v %v", step, id.Short(), res, err)
			}
		}
	}
	// Final sweep: every survivor reachable.
	refresh()
	for _, id := range list {
		host, _ := n.HostingRouter(id)
		if !n.LS.Reachable(isp.Backbone[0], host) {
			continue
		}
		if _, err := n.Route(isp.Backbone[0], id); err != nil {
			t.Fatalf("final route to %s: %v", id.Short(), err)
		}
	}
}
