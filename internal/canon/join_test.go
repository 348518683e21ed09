package canon

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// refJoinLevels is the level list as Join built it before each AS kept
// its lists: rootsFor, a level lookup per root and a sort, at every join.
func refJoinLevels(in *Internet, x topology.ASN, s Strategy) []*level {
	var levels []*level
	for _, root := range in.rootsFor(x, s) {
		levels = append(levels, in.level(root))
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i].below(levels[j]) })
	return levels
}

// hostASes lists the ASes of g that hold hosts, ascending.
func hostASes(g *topology.ASGraph) []topology.ASN {
	var out []topology.ASN
	for a := 0; a < g.NumASes(); a++ {
		if g.Hosts(topology.ASN(a)) > 0 {
			out = append(out, topology.ASN(a))
		}
	}
	return out
}

// TestJoinLevelsMatchRootsFor: every join's levels equal the list the
// reference rebuilds at that join, including second joins that reuse an
// AS's list, joins after a primary access link fails, the traffic-
// engineering joins that mask access links around a single-homed join,
// and the rejoins of a FailAS that migrates identifiers to their standby.
func TestJoinLevelsMatchRootsFor(t *testing.T) {
	g := topology.GenAS(topology.DefaultASGen())
	in := New(g, sim.NewMetrics(), DefaultOptions())
	strategies := []Strategy{Ephemeral, SingleHomed, Multihomed, Peering}
	n := 0
	join := func(stage string, at topology.ASN, s Strategy) ident.ID {
		t.Helper()
		n++
		id := ident.FromString(fmt.Sprintf("levels-%d", n))
		want := refJoinLevels(in, at, s)
		res, err := in.Join(id, at, s)
		if err != nil {
			t.Fatalf("%s: join at AS %d: %v", stage, at, err)
		}
		if !slices.Equal(res.VN.levels, want) {
			t.Fatalf("%s: %v join at AS %d covers %v, reference %v", stage, s, at, res.VN.Roots(), rootsOf(want))
		}
		return id
	}
	checkRings := func(stage string) {
		t.Helper()
		if err := in.CheckRings(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	hosts := hostASes(g)
	for _, a := range hosts {
		for _, s := range strategies {
			join("healthy", a, s)
			join("healthy, second join", a, s)
		}
	}
	checkRings("healthy")

	// A stub with two primary providers loses the one its single-homed
	// chain climbs through.
	var multi topology.ASN = -1
	for _, a := range hosts {
		if g.Tier(a) == 3 && len(g.PrimaryProviders(a)) > 1 {
			multi = a
			break
		}
	}
	if multi < 0 {
		t.Fatal("no host-bearing stub with two primary providers")
	}
	before := refJoinLevels(in, multi, SingleHomed)
	first := g.PrimaryProviders(multi)[0]
	in.FailASLink(multi, first)
	if slices.Equal(refJoinLevels(in, multi, SingleHomed), before) {
		t.Fatalf("failing AS %d's link to %d leaves its single-homed levels as they were", multi, first)
	}
	for _, s := range strategies {
		join("primary link failed", multi, s)
		join("primary link failed, second join", multi, s)
	}
	in.RestoreASLink(multi, first)
	checkRings("primary link failed")

	// joinVia masks every access link but one around a single-homed
	// join; the plain single-homed join before it climbs the first.
	join("before the TE joins", multi, SingleHomed)
	te, err := in.JoinGroupTE(ident.GroupFromString("levels-te"), []uint32{1, 2, 3, 4}, multi)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, id := range te.Members {
		prov := te.ProviderOf[id]
		var masked []topology.ASN
		for _, p := range in.activeProviders(nil, multi) {
			if p != prov {
				in.FailASLink(multi, p)
				masked = append(masked, p)
			}
		}
		want := refJoinLevels(in, multi, SingleHomed)
		for _, p := range masked {
			in.RestoreASLink(multi, p)
		}
		if got := in.vnOf(id).levels; !slices.Equal(got, want) {
			t.Fatalf("TE member pinned to AS %d covers %v, reference %v", prov, in.vnOf(id).Roots(), rootsOf(want))
		}
		if !slices.Equal(want, before) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no TE member climbed a chain other than the plain single-homed join's")
	}
	checkRings("TE joins")

	// Residents of every strategy at a stub migrate to a provider that
	// stands by for them, and rejoin there.
	standby := g.PrimaryProviders(multi)[1]
	var migrants []ident.ID
	for _, s := range strategies {
		id := join("before FailAS", multi, s)
		if err := in.HostVirtual(id, standby); err != nil {
			t.Fatal(err)
		}
		migrants = append(migrants, id)
	}
	in.FailAS(multi)
	for i, id := range migrants {
		vn := in.vnOf(id)
		if vn == nil || vn.AS != standby {
			t.Fatalf("%v resident did not migrate to AS %d", strategies[i], standby)
		}
		if want := refJoinLevels(in, standby, strategies[i]); !slices.Equal(vn.levels, want) {
			t.Fatalf("%v resident migrated to AS %d covers %v, reference %v", strategies[i], standby, vn.Roots(), rootsOf(want))
		}
	}
	for _, s := range strategies {
		join("after FailAS", standby, s)
	}
	checkRings("after FailAS")
}

// rootsOf names a level list's roots for failure messages.
func rootsOf(levels []*level) []Root {
	out := make([]Root, len(levels))
	for i, lv := range levels {
		out[i] = lv.root
	}
	return out
}

// TestJoinAllocations: a multihomed join into an AS that already holds
// its level list allocates little beyond the node itself; the rest is
// amortised growth of the rings, the resident tables and the oracle map.
func TestJoinAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("malloc budget under -race")
	}
	g := topology.GenAS(topology.DefaultASGen())
	in := New(g, sim.NewMetrics(), DefaultOptions())
	hosts := hostASes(g)
	for i, a := range hosts {
		if _, err := in.Join(ident.FromString(fmt.Sprintf("alloc-warm-%d", i)), a, Multihomed); err != nil {
			t.Fatal(err)
		}
	}
	const joins = 2000
	rng := rand.New(rand.NewSource(7))
	ids := make([]ident.ID, joins)
	at := make([]topology.ASN, joins)
	for i := range ids {
		ids[i] = ident.FromString(fmt.Sprintf("alloc-%d", i))
		at[i] = hosts[rng.Intn(len(hosts))]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ids {
		if _, err := in.Join(ids[i], at[i], Multihomed); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perJoin := float64(after.Mallocs-before.Mallocs) / joins
	t.Logf("%.2f mallocs, %.0f bytes per join", perJoin, float64(after.TotalAlloc-before.TotalAlloc)/joins)
	if perJoin > 3 {
		t.Errorf("a join allocates %.2f times, want at most 3", perJoin)
	}
}
