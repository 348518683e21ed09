package canon

import (
	"math/rand"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// refSelectPointer is selectPointer as it stood before it read two ring
// candidates per level: every resident's predecessor and successor at
// every level it joined, found by one binary search each. It needs no
// precondition on pos, so it is the oracle the bracketed search is held
// to.
func refSelectPointer(in *Internet, as *AS, pos, dst ident.ID, stale staleSet) (Ptr, Root, bool) {
	var best Ptr
	var bestRoot Root
	bestSize := -1
	// sel ranks the candidates of the lowest level met so far.
	sel := ident.NewScan(pos, dst)
	consider := func(p Ptr, r Root, size int) {
		if bestSize != -1 && size > bestSize {
			return
		}
		if stale.has(staleKey{p, r}) || !ident.Progress(pos, dst, p.ID) {
			return
		}
		if size < bestSize {
			sel = ident.NewScan(pos, dst) // a lower level displaces whatever was found above it
		}
		if sel.Offer(p.ID) || (p.ID == best.ID &&
			(rootLess(r, bestRoot) || (r == bestRoot && p.AS < best.AS))) {
			best, bestRoot, bestSize = p, r, size
		}
	}
	for _, vn := range as.VNs {
		for _, lv := range vn.levels {
			if bestSize != -1 && lv.size > bestSize {
				break // levels ascend: nothing above the best one found can win
			}
			pred, succ := lv.neighbours(vn.ID)
			consider(succ, lv.root, lv.size)
			consider(pred, lv.root, lv.size)
		}
		for _, f := range vn.Fingers {
			consider(f.Ptr, f.Root, in.level(f.Root).size)
		}
	}
	found := bestSize != -1

	// Cache shortcut, Bloom-guarded.
	if as.Cache != nil && as.Cache.Len() > 0 {
		dstBelowUs := as.Bloom != nil && as.Bloom.Contains(dst[:])
		if !dstBelowUs {
			if p, ok := as.Cache.Lookup(pos, dst); ok {
				c := ptrOf(p)
				if !stale.has(staleKey{c, top}) && (!found || ident.Closer(dst, c.ID, best.ID)) {
					return c, top, true
				}
			}
		}
	}
	return best, bestRoot, found
}

// selectCalls counts the decisions the oracle checked.
type selectCalls struct {
	all   int
	stale int // made with a non-empty stale set
}

// checkSelections holds every selectPointer decision route makes for the
// rest of t to refSelectPointer's. The second cache lookup moves the
// entry's recency stamp, which can change a later eviction but not this
// decision.
func checkSelections(t *testing.T) *selectCalls {
	t.Helper()
	var n selectCalls
	testHookSelect = func(in *Internet, as *AS, pos, dst ident.ID, stale staleSet, got Ptr, gotRoot Root, ok bool) {
		n.all++
		if len(stale) > 0 {
			n.stale++
		}
		want, wantRoot, wantOK := refSelectPointer(in, as, pos, dst, stale)
		if got != want || gotRoot != wantRoot || ok != wantOK {
			t.Fatalf("AS %d, pos %s, dst %s, %d stale: selectPointer = %v at %v (%v), exhaustive scan %v at %v (%v)",
				as.ASN, pos.Short(), dst.Short(), len(stale), got, gotRoot, ok, want, wantRoot, wantOK)
		}
	}
	t.Cleanup(func() { testHookSelect = nil })
	return &n
}

// routePairs routes count seeded pairs of ids, failing on an error.
func routePairs(t *testing.T, in *Internet, ids []ident.ID, count int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if _, err := in.Route(src, dst); err != nil {
			t.Fatalf("route %d %s->%s: %v", i, src.Short(), dst.Short(), err)
		}
	}
}

// TestSelectPointerMatchesExhaustiveScan compares selectPointer with the
// exhaustive scan at every AS of every route: on the default multihomed
// graph, through the churn soak (four strategies, fingers, leaves, link
// flaps, AS failures), with pointer caches, with Bloom peering, and on a
// route that finds its first pointer stale.
func TestSelectPointerMatchesExhaustiveScan(t *testing.T) {
	t.Run("default multihomed", func(t *testing.T) {
		calls := checkSelections(t)
		g := topology.GenAS(topology.DefaultASGen())
		in := New(g, sim.NewMetrics(), DefaultOptions())
		routePairs(t, in, joinMany(t, in, g, 3000, Multihomed, 7), 1500, 8)
		t.Logf("%d decisions", calls.all)
	})
	t.Run("churn soak", func(t *testing.T) {
		calls := checkSelections(t)
		for _, seed := range []int64{11, 22, 33} {
			interSoak(t, seed, 150)
		}
		if calls.all == 0 {
			t.Fatal("the soak routed nothing")
		}
		t.Logf("%d decisions", calls.all)
	})
	t.Run("pointer caches", func(t *testing.T) {
		calls := checkSelections(t)
		opts := DefaultOptions()
		opts.CacheCapacity = 200
		in, g := genInternet(t, opts)
		ids := joinMany(t, in, g, 400, Multihomed, 15)
		for pass := 0; pass < 2; pass++ {
			routePairs(t, in, ids, 400, 16)
		}
		t.Logf("%d decisions", calls.all)
	})
	t.Run("bloom peering", func(t *testing.T) {
		calls := checkSelections(t)
		opts := DefaultOptions()
		opts.BloomPeering = true
		in, g := genInternet(t, opts)
		routePairs(t, in, joinMany(t, in, g, 300, Peering, 17), 300, 18)
		t.Logf("%d decisions", calls.all)
	})
	t.Run("stale pointer", func(t *testing.T) {
		calls := checkSelections(t)
		in, a, b := twoLevelInternet(t)
		in.FailASLink(5, 2)
		if _, err := in.Route(a, b); err != nil {
			t.Fatal(err)
		}
		if calls.stale == 0 {
			t.Fatal("no decision was made with a stale pointer set")
		}
	})
}
