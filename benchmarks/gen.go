package main

import (
	"math/rand"
	"sort"

	"rofl/internal/ident"
	"rofl/internal/topology"
)

// Everything the code under test is fed comes from this file, as a pure
// function of -seed: node and host identifiers, who sends to whom, payload
// sizes, probe pairs, join placements. The systems measured receive only
// these lists (the compact ring, which mints its own identifiers, receives
// the seed itself as CompactConfig.Seed).

// Each input list draws from its own stream so that resizing one list
// leaves the others unchanged.
const (
	streamLiveIDs = iota + 1
	streamLiveOps
	streamProbe
	streamVringJoin
	streamVringRoute
	streamCanonJoin
	streamCanonRoute
	streamLayers
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

// liveOp is one packet of the live workloads: source and destination as
// indices into the node list, and the payload size in bytes.
type liveOp struct {
	Src, Dst uint16
	Size     uint16
}

// liveOpsLen is the length of the cyclic packet list. At 16 nodes it
// covers each of the 240 ordered pairs about 270 times.
const liveOpsLen = 1 << 16

// genLiveIDs returns n distinct node identifiers.
func genLiveIDs(seed int64, n int) []ident.ID {
	rng := newRand(seed, streamLiveIDs)
	seen := make(map[ident.ID]bool, n)
	ids := make([]ident.ID, 0, n)
	for len(ids) < n {
		id := ident.Random(rng)
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// genLiveOps returns the cyclic packet list: source and destination
// uniform over distinct members, sizes cycling through the given list
// (one size for udp_ring_sat, 64 B / 1200 B alternating for
// udp_ring_ping).
func genLiveOps(seed int64, nodes int, sizes []int) []liveOp {
	rng := newRand(seed, streamLiveOps)
	ops := make([]liveOp, liveOpsLen)
	for i := range ops {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		ops[i] = liveOp{Src: uint16(src), Dst: uint16(dst), Size: uint16(sizes[i%len(sizes)])}
	}
	return ops
}

// probeOp is one measurement probe on the compact ring: the member it
// starts from and the member (or, for a join probe, the fresh identifier)
// it heads for.
type probeOp struct {
	From, To uint32
	Joining  ident.ID
}

func genProbeOps(seed int64, members, n int) []probeOp {
	rng := newRand(seed, streamProbe)
	ops := make([]probeOp, n)
	for i := range ops {
		ops[i] = probeOp{
			From:    uint32(rng.Intn(members)),
			To:      uint32(rng.Intn(members)),
			Joining: ident.Random(rng),
		}
	}
	return ops
}

// spread returns n attachment indices in which index i appears in
// proportion to weights[i] (largest remainders make up the rounding; a
// zero weight counts as one, as the Fig 5 drivers keep every access
// router sample-able), in an order shuffled by rng. Every seed therefore
// populates every router with the same number of hosts, and the seed
// decides which identifiers they are and in which order they join; drawn
// independently instead, the population of the few heavy routers would
// differ from seed to seed by more than the runs differ from each other.
func spread(weights []int, n int, rng *rand.Rand) []int {
	total := 0
	for _, w := range weights {
		total += max(w, 1)
	}
	out := make([]int, 0, n)
	type rem struct{ idx, frac int }
	rems := make([]rem, len(weights))
	for i, w := range weights {
		share := max(w, 1) * n
		for k := 0; k < share/total; k++ {
			out = append(out, i)
		}
		rems[i] = rem{i, share % total}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; len(out) < n; k++ {
		out = append(out, rems[k].idx)
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// hostJoin places one host identifier at an access router (vring) or an
// AS (canon).
type hostJoin struct {
	ID ident.ID
	At int
}

// routeOp routes from an attachment point (vring: access router) or a
// joined host (canon: index into the join list) to a joined host.
type routeOp struct {
	From, To int
}

func genVringJoins(seed int64, isp *topology.ISP, n int) []hostJoin {
	rng := newRand(seed, streamVringJoin)
	at := spread(isp.HostsAt, n, rng)
	joins := make([]hostJoin, n)
	for i := range joins {
		joins[i] = hostJoin{ID: ident.Random(rng), At: int(isp.Access[at[i]])}
	}
	return joins
}

func genVringRoutes(seed int64, isp *topology.ISP, hosts, n int) []routeOp {
	rng := newRand(seed, streamVringRoute)
	ops := make([]routeOp, n)
	for i := range ops {
		ops[i] = routeOp{From: int(isp.Access[rng.Intn(len(isp.Access))]), To: rng.Intn(hosts)}
	}
	return ops
}

// genCanonJoins spreads joins over the host-populated ASes with weight
// ~sqrt(hosts), the Fig 8 drivers' placement.
func genCanonJoins(seed int64, g *topology.ASGraph, n int) []hostJoin {
	rng := newRand(seed, streamCanonJoin)
	var ases, weights []int
	for a := 0; a < g.NumASes(); a++ {
		w := 0
		for h := g.Hosts(topology.ASN(a)); (w+1)*(w+1) <= h; w++ {
		}
		if w > 0 {
			ases = append(ases, a)
			weights = append(weights, w)
		}
	}
	at := spread(weights, n, rng)
	joins := make([]hostJoin, n)
	for i := range joins {
		joins[i] = hostJoin{ID: ident.Random(rng), At: ases[at[i]]}
	}
	return joins
}

func genCanonRoutes(seed int64, hosts, n int) []routeOp {
	rng := newRand(seed, streamCanonRoute)
	ops := make([]routeOp, n)
	for i := range ops {
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts - 1)
		if dst >= src {
			dst++
		}
		ops[i] = routeOp{From: src, To: dst}
	}
	return ops
}
