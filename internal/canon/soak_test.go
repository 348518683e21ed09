package canon

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// TestInterdomainChurnSoak interleaves joins (all strategies), graceful
// leaves, AS-link flaps and stub-AS failures, verifying ring and
// isolation-state invariants and routing one pair after every event.
func TestInterdomainChurnSoak(t *testing.T) {
	seeds := []int64{11, 22, 33}
	steps := 150
	if testing.Short() {
		seeds = seeds[:1]
		steps = 60
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			interSoak(t, seed, steps)
		})
	}
}

// TestInterdomainSoakReplays: one seed of the churn soak, run twice, ends
// with every counter and every ring size the same, so a failing seed
// reproduces.
func TestInterdomainSoakReplays(t *testing.T) {
	a, b := interSoak(t, 22, 150), interSoak(t, 22, 150)
	names := a.Metrics.CounterNames()
	if !slices.Equal(names, b.Metrics.CounterNames()) {
		t.Fatalf("counters %v, then %v", names, b.Metrics.CounterNames())
	}
	for _, name := range names {
		if x, y := a.Metrics.Counter(name), b.Metrics.Counter(name); x != y {
			t.Fatalf("counter %s: %d, then %d", name, x, y)
		}
	}
	if x, y := ringSizes(a), ringSizes(b); !maps.Equal(x, y) {
		t.Fatalf("ring sizes %v, then %v", x, y)
	}
}

func ringSizes(in *Internet) map[Root]int {
	sizes := make(map[Root]int, len(in.levels))
	for root, lv := range in.levels {
		sizes[root] = lv.ring.Len()
	}
	return sizes
}

// interSoak runs steps seeded churn events on a fresh Internet, routes
// among the survivors, and returns the Internet.
func interSoak(t *testing.T, seed int64, steps int) *Internet {
	g := topology.GenAS(topology.ASGenConfig{
		Tier1: 3, Tier2: 10, Stubs: 40,
		Hosts: 1000, ZipfS: 1.1, PeerProb: 0.2, BackupProb: 0.3, Seed: seed,
	})
	opts := DefaultOptions()
	opts.FingerBudget = 30
	opts.Seed = seed
	in := New(g, sim.NewMetrics(), opts)
	rng := rand.New(rand.NewSource(seed))
	stubs := g.Stubs()
	strategies := []Strategy{Ephemeral, SingleHomed, Multihomed, Peering}

	var live []ident.ID // joined and still hosted, in join order
	next := 0
	// Each check also routes one pair, drawn from a generator of its own
	// so the churn events do not depend on what was routed.
	pairs := rand.New(rand.NewSource(seed + 1))
	check := func(step int, what string) {
		if err := in.CheckRings(); err != nil {
			t.Fatalf("seed %d step %d after %s: %v", seed, step, what, err)
		}
		if err := in.CheckIsolationState(); err != nil {
			t.Fatalf("seed %d step %d after %s: %v", seed, step, what, err)
		}
		if len(live) > 1 {
			src, dst := live[pairs.Intn(len(live))], live[pairs.Intn(len(live))]
			if _, err := in.Route(src, dst); err != nil {
				t.Fatalf("seed %d step %d after %s: route %s->%s: %v", seed, step, what, src.Short(), dst.Short(), err)
			}
		}
	}
	failedASes := map[topology.ASN]bool{}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // join with a random strategy
			id := ident.FromString(fmt.Sprintf("isoak-%d-%d", seed, next))
			next++
			as := stubs[rng.Intn(len(stubs))]
			if failedASes[as] {
				continue
			}
			if _, err := in.Join(id, as, strategies[rng.Intn(len(strategies))]); err != nil {
				t.Fatalf("step %d join: %v", step, err)
			}
			live = append(live, id)
			check(step, "join")
		case op < 7: // graceful leave
			if len(live) == 0 {
				continue
			}
			k := rng.Intn(len(live))
			if err := in.Leave(live[k]); err != nil {
				t.Fatalf("step %d leave: %v", step, err)
			}
			live = slices.Delete(live, k, k+1)
			check(step, "leave")
		case op < 8: // AS-link flap
			a := stubs[rng.Intn(len(stubs))]
			provs := g.Providers(a)
			if len(provs) < 2 {
				continue
			}
			p := provs[rng.Intn(len(provs))]
			in.FailASLink(a, p)
			check(step, "link fail")
			in.RestoreASLink(a, p)
		default: // stub failure
			var victim topology.ASN = -1
			for tries := 0; tries < 50; tries++ {
				c := stubs[rng.Intn(len(stubs))]
				if !failedASes[c] {
					victim = c
					break
				}
			}
			if victim == -1 {
				continue
			}
			in.FailAS(victim)
			failedASes[victim] = true
			live = slices.DeleteFunc(live, func(id ident.ID) bool {
				_, ok := in.HostingAS(id)
				return !ok
			})
			check(step, "stub failure")
		}
	}
	// Final sweep: every survivor routable from every other.
	probes := 0
	for i := 0; i < len(live) && probes < 100; i++ {
		for j := 0; j < len(live) && probes < 100; j++ {
			if i == j {
				continue
			}
			probes++
			if _, err := in.Route(live[i], live[j]); err != nil {
				t.Fatalf("final route %s->%s: %v", live[i].Short(), live[j].Short(), err)
			}
		}
	}
	return in
}
