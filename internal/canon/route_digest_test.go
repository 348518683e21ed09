package canon

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// routeList builds the benchmark-shaped Internet (the default AS graph,
// 3,000 multihomed joins) and draws its 1,500 route pairs.
func routeList(t *testing.T) (*Internet, [][2]ident.ID) {
	t.Helper()
	const hosts, pairs = 3000, 1500
	g := topology.GenAS(topology.DefaultASGen())
	in := New(g, sim.NewMetrics(), DefaultOptions())
	ids := joinMany(t, in, g, hosts, Multihomed, 7)
	rng := rand.New(rand.NewSource(8))
	list := make([][2]ident.ID, pairs)
	for i := range list {
		list[i] = [2]ident.ID{ids[rng.Intn(hosts)], ids[rng.Intn(hosts)]}
	}
	return in, list
}

// TestRouteOutcomeDigest pins everything a route pass observably does:
// each pair's path, hop count, final AS, delivery, strict isolation and
// error, then every Metrics counter (the join-message total among them),
// before and after failing four ASes. The failures leave pointers whose
// policy paths are gone, so the second pass also takes the stale-mark,
// no-route and unknown-source exits.
func TestRouteOutcomeDigest(t *testing.T) {
	in, list := routeList(t)
	h := sha256.New()
	hops, noRoute, unknown, staleSeen := 0, 0, 0, 0
	testHookSelect = func(_ *Internet, _ *AS, _, _ ident.ID, stale staleSet, _ Ptr, _ Root, _ bool) {
		if len(stale) > 0 {
			staleSeen++
		}
	}
	defer func() { testHookSelect = nil }()
	pass := func() {
		for _, p := range list {
			res, err := in.Route(p[0], p[1])
			fmt.Fprintln(h, res.Traversed, res.ASHops, res.FinalAS, res.Delivered, res.StrictlyIsolated, err)
			hops += res.ASHops
			switch {
			case errors.Is(err, ErrNoRoute):
				noRoute++
			case errors.Is(err, errUnknownID):
				unknown++
			}
		}
		for _, name := range in.Metrics.CounterNames() {
			fmt.Fprintln(h, name, in.Metrics.Counter(name))
		}
	}
	pass()
	t.Logf("%d AS hops, %d join messages, %d strict-isolation misses", hops,
		in.Metrics.Counter(msgJoin), in.Metrics.Counter(ctrIsolationViolations))
	for _, a := range []topology.ASN{9, 10, 30, 100} {
		in.FailAS(a)
	}
	pass()
	t.Logf("%d AS hops over both passes, %d no-route exits, %d unknown sources, %d selections past a stale mark",
		hops, noRoute, unknown, staleSeen)
	if noRoute == 0 || unknown == 0 || staleSeen == 0 {
		t.Error("the failures left no stale mark, no-route exit or unknown source to cover")
	}
	const want = "be1f7acacdfa97f9ea4b296c9fa3ad0a96ed31cae04248654e5257bd41b5a3a3"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("route outcome digest %s, want %s", got, want)
	}
}

// TestRouteAllocations pins the mallocs of a route on the digest's
// Internet, read exactly from runtime.MemStats (1.07 measured): a route
// allocates its recorded path, with room for 32 ASes, and grows it once
// on the routes that outrun that.
func TestRouteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("malloc budget under -race")
	}
	in, list := routeList(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range list {
		if _, err := in.Route(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRoute := float64(after.Mallocs-before.Mallocs) / float64(len(list))
	t.Logf("%.2f mallocs, %.0f bytes per route", perRoute, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(list)))
	if perRoute > 1.1 {
		t.Errorf("a route allocates %.2f times, want at most 1.1", perRoute)
	}
}
