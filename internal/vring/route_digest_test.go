package vring

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// TestRouteOutcomeDigest pins everything the benchmark's ring observably
// does: AS 1221 with 4,000 hosts placed by HostsAt (seed 1), each join's
// messages and latency, then each of 5,000 routes' delivery, hops,
// latency, final router, stretch and error, every Metrics counter, the
// per-router traversals and each router's routing-state entries; the
// route pass and the state are hashed again after one access router
// fails, which moves its hosts and leaves stale pointers behind.
func TestRouteOutcomeDigest(t *testing.T) {
	isp := topology.GenISP(topology.AS1221)
	n := New(isp.Graph, sim.NewMetrics(), DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	ids, at := benchHosts(isp, rng, 4000)
	for i, id := range ids {
		res, err := n.JoinHost(id, at[i])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, res.Msgs, res.Latency)
	}
	pairs := make([][2]int, 5000)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(len(isp.Access)), rng.Intn(len(ids))}
	}
	hops, failed, staleSeen := 0, 0, 0
	testHookSelect = func(_ *Router, _, _ ident.ID, stale staleSet, _ Pointer, _ *VirtualNode, _ bool) {
		if len(stale) > 0 {
			staleSeen++
		}
	}
	defer func() { testHookSelect = nil }()
	pass := func() {
		for _, p := range pairs {
			res, err := n.Route(isp.Access[p[0]], ids[p[1]])
			fmt.Fprintln(h, res.Delivered, res.Hops, res.Latency, res.Final, res.Stretch, err)
			hops += res.Hops
			if err != nil {
				failed++
			}
		}
		for _, name := range n.Metrics.CounterNames() {
			fmt.Fprintln(h, name, n.Metrics.Counter(name))
		}
		fmt.Fprintln(h, n.Traversals())
		for _, r := range n.Routers {
			fmt.Fprint(h, r.MemoryEntries(), " ")
		}
		fmt.Fprintln(h)
	}
	pass()
	t.Logf("%d hops, %d join messages", hops, n.Metrics.Counter(MsgJoin))
	if err := n.FailRouter(isp.Access[0]); err != nil {
		t.Fatal(err)
	}
	pass()
	t.Logf("%d hops over both passes, %d routes failed, %d selections past a stale mark", hops, failed, staleSeen)
	if failed == 0 || staleSeen == 0 {
		t.Error("the failure left no failed route or stale mark to cover")
	}
	const want = "30e2fcb8f49aa9d06aec9a8b88640cd75d8b8718c5a019ec147525b3675e57de"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("route outcome digest %s, want %s", got, want)
	}
}
