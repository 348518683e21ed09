package vring

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// TestChurnSoakMultiSeed is the long-form convergence soak: several
// independent seeds, hundreds of interleaved churn events each, with the
// ring checker run after every single event — the closest laptop-scale
// analogue of the paper's "10 million partitions, converged in every
// case" validation. A join spliced at the wrong predecessor fails the
// check at that step, and every selectNextHop decision is held to the
// exhaustive scan (checkSelections; the hook is package-wide, so the
// seeds run one at a time). Runs abbreviated under -short.
func TestChurnSoakMultiSeed(t *testing.T) {
	seeds, steps := soakPlan()
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			calls := checkSelections(t)
			soakOneSeed(t, seed, steps)
			t.Logf("%d decisions", calls.all)
		})
	}
}

// soakPlan returns the soak's seeds and the churn events per seed.
func soakPlan() ([]int64, int) {
	if testing.Short() {
		return []int64{101, 202}, 80
	}
	return []int64{101, 202, 303, 404, 505, 777}, 250
}

// TestChurnSoakReplays: one seed of the churn soak, run twice, ends with
// every counter and the host count the same, so a failing seed
// reproduces.
func TestChurnSoakReplays(t *testing.T) {
	_, steps := soakPlan()
	a, b := soakOneSeed(t, 101, steps), soakOneSeed(t, 101, steps)
	names := a.Metrics.CounterNames()
	if !slices.Equal(names, b.Metrics.CounterNames()) {
		t.Fatalf("counters %v, then %v", names, b.Metrics.CounterNames())
	}
	for _, name := range names {
		if x, y := a.Metrics.Counter(name), b.Metrics.Counter(name); x != y {
			t.Fatalf("counter %s: %d, then %d", name, x, y)
		}
	}
	if x, y := a.NumHosts(), b.NumHosts(); x != y {
		t.Fatalf("%d hosts, then %d", x, y)
	}
}

// soakOneSeed runs steps seeded churn events on a fresh network, checking
// the ring after each, routes to every survivor, and returns the network.
func soakOneSeed(t *testing.T, seed int64, steps int) *Network {
	isp := topology.GenISP(topology.ISPConfig{
		Name: fmt.Sprintf("soak-%d", seed), Routers: 36, PoPs: 6, BackbonePerPoP: 2,
		PoPDegree: 2, IntraPoPDelay: 0.5, InterPoPDelay: 4, Hosts: 80, ZipfS: 1.2, Seed: seed,
	})
	m := sim.NewMetrics()
	opts := DefaultOptions()
	opts.Seed = seed
	n := New(isp.Graph, m, opts)
	rng := rand.New(rand.NewSource(seed))

	var live []ident.ID // joined and still hosted, in join order
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
			live = append(live, id)
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
			live = append(live, id)
			check(step, "ephemeral join")
		case op < 8: // removal (leave or crash)
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			var err error
			if rng.Intn(2) == 0 {
				err = n.LeaveHost(id)
			} else {
				err = n.FailHost(id)
			}
			if err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
			live = slices.Delete(live, i, i+1)
			check(step, "removal")
		case op < 9: // mobility
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))]
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
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))]
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
	for _, id := range live {
		host, _ := n.HostingRouter(id)
		if !n.LS.Reachable(isp.Backbone[0], host) {
			continue
		}
		if _, err := n.Route(isp.Backbone[0], id); err != nil {
			t.Fatalf("final route to %s: %v", id.Short(), err)
		}
	}
	return n
}
