package canon

import (
	"math/rand"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// TestRouteRepeatsRunToRun: selectPointer's ranking is total, so no
// choice falls to the order it meets candidates in. Two Internets built
// from one seed, with hosts at transit ASes as well as stubs (where two
// ring levels of equal subtree size can hold the same identifier), must
// route every pair over the identical AS path.
func TestRouteRepeatsRunToRun(t *testing.T) {
	const hosts, pairs = 3000, 1500
	build := func() (*Internet, []ident.ID) {
		g := topology.GenAS(topology.DefaultASGen())
		in := New(g, sim.NewMetrics(), DefaultOptions())
		return in, joinMany(t, in, g, hosts, Multihomed, 7)
	}
	a, ids := build()
	b, _ := build()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < pairs; i++ {
		src, dst := ids[rng.Intn(hosts)], ids[rng.Intn(hosts)]
		ra, errA := a.Route(src, dst)
		rb, errB := b.Route(src, dst)
		if (errA == nil) != (errB == nil) || len(ra.Traversed) != len(rb.Traversed) {
			t.Fatalf("pair %d: %v (%v) vs %v (%v)", i, ra.Traversed, errA, rb.Traversed, errB)
		}
		for k := range ra.Traversed {
			if ra.Traversed[k] != rb.Traversed[k] {
				t.Fatalf("pair %d diverges at hop %d: %v vs %v", i, k, ra.Traversed, rb.Traversed)
			}
		}
	}
}
