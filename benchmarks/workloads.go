package main

import (
	"sort"

	"rofl/internal/ident"
)

const defaultSeed = 1

// workloads is the workload table. Each has one operation, so that the
// end-to-end metrics mean the same thing on every row: how long
// set-up takes, how many operations complete per second, what one costs
// in CPU, and what the structures hold in memory afterwards.
var workloads = []workload{
	{
		Name:   "udp_ring_sat",
		Why:    "16 real-UDP nodes, window 32, 32 B packets: cores saturated, so per-hop CPU (syscalls, resolve, lock, codec) sets the rate",
		family: "live", rounds: 6,
		round: func(rc roundCtx) (roundOut, error) { return liveRound(rc, satShape) },
	},
	{
		Name:   "udp_ring_ping",
		Why:    "same ring, window 2, 64 B/1200 B: no queue forms, so hop count and wake-up latency set the rate; batching must not win here",
		family: "live", rounds: 6,
		round: func(rc roundCtx) (roundOut, error) { return liveRound(rc, pingShape) },
	},
	{
		Name:   "sim_compact_converge",
		Why:    "100k-host CompactRing.Run at 2 shards: all work is ShardedEngine heap, outbox, barrier plus the compact handler",
		family: "compact", rounds: 3,
		round: func(rc roundCtx) (roundOut, error) { return compactRound(rc, compactConverge) },
	},
	{
		Name:   "sim_compact_probe",
		Why:    "greedy Probe over the converged 100k-host ring: successor slabs and bucketed caches read-only, no engine",
		family: "compact", rounds: 3,
		round: func(rc roundCtx) (roundOut, error) { return compactRound(rc, compactProbe) },
	},
	{
		Name:   "sim_vring_join",
		Why:    "4000 Network.JoinHost on AS1221: ring splice plus cache inserts, the write side of the Fig 5-7 structures",
		family: "vring", rounds: 3,
		round: func(rc roundCtx) (roundOut, error) { return fidelityRound(rc, vringShape, phaseJoin) },
	},
	{
		Name:   "sim_vring_route",
		Why:    "Network.Route over the joined ring: greedy walk plus cache lookups, the read side; a gain here paid by joins shows there",
		family: "vring", rounds: 3,
		round: func(rc roundCtx) (roundOut, error) { return fidelityRound(rc, vringShape, phaseRoute) },
	},
	{
		Name:   "sim_canon_join",
		Why:    "2000 multihomed Internet.Join on a generated AS graph: the interdomain ring the ring collapse will rewrite, write side",
		family: "canon", rounds: 3,
		round: func(rc roundCtx) (roundOut, error) { return fidelityRound(rc, canonShape, phaseJoin) },
	},
	{
		Name:   "sim_canon_route",
		Why:    "Internet.Route between joined hosts: policy-compliant greedy routing over fingers, read side of the same structures",
		family: "canon", rounds: 3,
		round: func(rc roundCtx) (roundOut, error) { return fidelityRound(rc, canonShape, phaseRoute) },
	},
}

// families maps each family to the traced round that measures its
// layers. A traced run of a workload runs its own family's at full
// length and the others' at sliceScale.
var families = []struct {
	name  string
	slice func(rc roundCtx, w workload) (roundOut, error)
}{
	{"live", func(rc roundCtx, w workload) (roundOut, error) {
		// The ping workload traces itself; every other run reads the live
		// layers off the saturated ring.
		if w.Name == "udp_ring_ping" {
			return liveRound(rc, pingShape)
		}
		return liveRound(rc, satShape)
	}},
	{"compact", func(rc roundCtx, _ workload) (roundOut, error) { return compactRound(rc, compactSlice) }},
	{"vring", func(rc roundCtx, _ workload) (roundOut, error) { return fidelityRound(rc, vringShape, phaseSlice) }},
	{"canon", func(rc roundCtx, _ workload) (roundOut, error) { return fidelityRound(rc, canonShape, phaseSlice) }},
}

// sliceScale sizes the other families' slices of a traced run.
const sliceScale = 0.1

func sortIDs(ids []ident.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
}
