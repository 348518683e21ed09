package rofl_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rofl"
	"rofl/internal/ident"
	"rofl/internal/wire"
)

// benchConfig sizes the figure drivers for benchmarking: large enough
// that the measured work is the experiment itself, small enough that a
// full -bench=. run completes in minutes.
func benchConfig() rofl.ExperimentConfig {
	cfg := rofl.QuickExperimentConfig()
	cfg.HostsPerISP = 120
	cfg.Pairs = 150
	cfg.InterHosts = 240
	return cfg
}

// runFigure wraps one experiment driver as a benchmark, running trials
// across the default worker pool (Workers = NumCPU).
func runFigure(b *testing.B, id string) {
	runFigureWorkers(b, id, 0)
}

// runFigureWorkers runs one experiment driver with an explicit Workers
// setting. workers == 0 means the default (NumCPU); workers == 1 forces
// the serial path, giving the baseline for the parallel speedup.
func runFigureWorkers(b *testing.B, id string, workers int) {
	r, ok := rofl.ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := benchConfig()
	cfg.Workers = workers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := r.Run(cfg)
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- One benchmark per paper table/figure ---------------------------------

// BenchmarkFig5aJoinOverhead regenerates Fig 5a: intradomain cumulative
// join overhead vs IDs, against the CMU-ETHERNET baseline. Trials fan
// out across NumCPU workers; compare with the Serial variant below for
// the parallel speedup on multi-core machines.
func BenchmarkFig5aJoinOverhead(b *testing.B) { runFigure(b, "fig5a") }

// BenchmarkFig5aJoinOverheadSerial is the Workers=1 baseline for
// BenchmarkFig5aJoinOverhead; both produce byte-identical tables.
func BenchmarkFig5aJoinOverheadSerial(b *testing.B) { runFigureWorkers(b, "fig5a", 1) }

// BenchmarkFig5bJoinCDF regenerates Fig 5b: per-host join overhead CDF.
func BenchmarkFig5bJoinCDF(b *testing.B) { runFigure(b, "fig5b") }

// BenchmarkFig5cJoinLatency regenerates Fig 5c: join latency CDF.
func BenchmarkFig5cJoinLatency(b *testing.B) { runFigure(b, "fig5c") }

// BenchmarkFig6aStretch regenerates Fig 6a: stretch vs pointer-cache
// size.
func BenchmarkFig6aStretch(b *testing.B) { runFigure(b, "fig6a") }

// BenchmarkFig6bLoad regenerates Fig 6b: per-router load vs OSPF.
func BenchmarkFig6bLoad(b *testing.B) { runFigure(b, "fig6b") }

// BenchmarkFig6cMemory regenerates Fig 6c: per-router memory vs IDs.
func BenchmarkFig6cMemory(b *testing.B) { runFigure(b, "fig6c") }

// BenchmarkFig7Partition regenerates Fig 7: partition repair overhead.
func BenchmarkFig7Partition(b *testing.B) { runFigure(b, "fig7") }

// BenchmarkFig8aJoinStrategies regenerates Fig 8a: interdomain join
// overhead by strategy.
func BenchmarkFig8aJoinStrategies(b *testing.B) { runFigure(b, "fig8a") }

// BenchmarkFig8aJoinStrategiesSerial is the Workers=1 baseline for
// BenchmarkFig8aJoinStrategies.
func BenchmarkFig8aJoinStrategiesSerial(b *testing.B) { runFigureWorkers(b, "fig8a", 1) }

// BenchmarkFig8bStretch regenerates Fig 8b: interdomain stretch by
// finger budget against the BGP baseline.
func BenchmarkFig8bStretch(b *testing.B) { runFigure(b, "fig8b") }

// BenchmarkFig8cCaching regenerates Fig 8c: interdomain stretch vs
// per-AS pointer caches.
func BenchmarkFig8cCaching(b *testing.B) { runFigure(b, "fig8c") }

// BenchmarkStubFailure regenerates the §6.3 stub-AS failure experiment.
func BenchmarkStubFailure(b *testing.B) { runFigure(b, "stubfail") }

// BenchmarkBloomPeering regenerates the §6.4 peering-mechanism
// comparison.
func BenchmarkBloomPeering(b *testing.B) { runFigure(b, "bloompeering") }

// BenchmarkAblations runs the design-choice ablations DESIGN.md lists.
func BenchmarkAblations(b *testing.B) { runFigure(b, "ablation") }

// BenchmarkExtensions quantifies the §5 delivery and negotiation
// extensions.
func BenchmarkExtensions(b *testing.B) { runFigure(b, "extensions") }

// BenchmarkChurn measures per-event control cost under sustained churn
// (§6.2).
func BenchmarkChurn(b *testing.B) { runFigure(b, "churn") }

// BenchmarkMsgSizes measures join-message sizes vs finger count (§6.3).
func BenchmarkMsgSizes(b *testing.B) { runFigure(b, "msgsizes") }

// BenchmarkComposite runs the two-level system end to end.
func BenchmarkComposite(b *testing.B) { runFigure(b, "composite") }

// BenchmarkScaling runs the compact sharded-ring scaling sweep at bench
// scale (the full million-host sweep lives behind `roflsim -fig
// scaling`; SCALING.md publishes those curves).
func BenchmarkScaling(b *testing.B) {
	r, ok := rofl.ExperimentByID("scaling")
	if !ok {
		b.Fatal("scaling experiment not registered")
	}
	cfg := benchConfig()
	cfg.ScaleSweep = []int{2000, 10000}
	cfg.Shards = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := r.Run(cfg)
		if len(tab.Rows) != 2 {
			b.Fatal("unexpected table shape")
		}
	}
}

// --- Protocol micro-benchmarks --------------------------------------------

// benchRingHosts is the population the repository benchmark joins on AS
// 1221 (benchmarks/wl_fidelity.go).
const benchRingHosts = 4000

// benchRing joins benchRingHosts random identifiers on AS 1221, placed as
// the Fig 5-6 drivers and the repository benchmark place them: access
// routers weighted by isp.HostsAt, so the heavy routers hold hundreds of
// residents and the per-router resident scan is part of what is timed
// (round-robin leaves ~2 residents per router and hides it). It returns
// the joined identifiers and the placement, for joining more.
func benchRing(b *testing.B) (*rofl.Network, *rofl.ISP, []rofl.ID, func() (rofl.ID, rofl.RouterID)) {
	isp := rofl.GenISP(rofl.AS1221())
	net := rofl.NewNetwork(isp.Graph, rofl.NewMetrics(), rofl.DefaultNetworkOptions())
	var cum []int
	total := 0
	for _, h := range isp.HostsAt {
		total += max(h, 1) // every access router stays sample-able
		cum = append(cum, total)
	}
	rng := rand.New(rand.NewSource(1))
	place := func() (rofl.ID, rofl.RouterID) {
		return ident.Random(rng), isp.Access[sort.SearchInts(cum, rng.Intn(total)+1)]
	}
	ids := make([]rofl.ID, benchRingHosts)
	for i := range ids {
		id, at := place()
		if _, err := net.JoinHost(id, at); err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	return net, isp, ids, place
}

// BenchmarkIntraJoin measures one intradomain host join on the paper's
// AS 1221 topology with warm caches.
func BenchmarkIntraJoin(b *testing.B) {
	net, _, _, place := benchRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.JoinHost(place()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntraRoute measures one intradomain data-packet route with
// warm caches.
func BenchmarkIntraRoute(b *testing.B) {
	net, isp, ids, _ := benchRing(b)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Route(isp.Access[rng.Intn(len(isp.Access))], ids[rng.Intn(len(ids))]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterJoinMultihomed measures one recursively multihomed
// interdomain join into an Internet of fewer than 3,000 identifiers:
// every 3,000 joins it starts again on a fresh one, off the timer, so
// the cost of a join does not grow with b.N.
func BenchmarkInterJoinMultihomed(b *testing.B) {
	const perInternet = 3000
	gen := rofl.DefaultASGen()
	gen.Hosts = 1000
	g := rofl.GenAS(gen)
	var in *rofl.Internet
	stubs := g.Stubs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perInternet == 0 {
			b.StopTimer()
			in = rofl.NewInternet(g, rofl.NewMetrics(), rofl.DefaultInternetOptions())
			b.StartTimer()
		}
		id := rofl.IDFromString(fmt.Sprintf("bj-%d", i))
		if _, err := in.Join(id, stubs[i%len(stubs)], rofl.Multihomed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterRoute measures one interdomain route over a populated
// hierarchy.
func BenchmarkInterRoute(b *testing.B) {
	gen := rofl.DefaultASGen()
	gen.Hosts = 1000
	g := rofl.GenAS(gen)
	in := rofl.NewInternet(g, rofl.NewMetrics(), rofl.DefaultInternetOptions())
	stubs := g.Stubs()
	var ids []rofl.ID
	for i := 0; i < 400; i++ {
		id := rofl.IDFromString(fmt.Sprintf("br-%d", i))
		if _, err := in.Join(id, stubs[i%len(stubs)], rofl.Multihomed); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if src == dst {
			continue
		}
		if _, err := in.Route(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Forwarding hot-path micro-benchmarks ---------------------------------
//
// These mirror the per-packet costs the live overlay pays on every hop,
// for go test -bench while working on a layer; the repository benchmark
// (benchmarks/) is the gate of record.

// BenchmarkWirePacketRoundTrip measures one encode+decode of a typical
// data packet — the serialization work bracketing every forwarded hop.
func BenchmarkWirePacketRoundTrip(b *testing.B) {
	pkt := &wire.Packet{
		Type:    wire.TypeData,
		TTL:     wire.DefaultTTL,
		Dst:     ident.FromString("bench-dst"),
		Src:     ident.FromString("bench-src"),
		ASRoute: []uint32{7018, 1239, 3356},
		Payload: make([]byte, 256),
	}
	buf := make([]byte, 0, pkt.EncodedLen())
	var dec wire.Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := pkt.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.DecodeFromBytes(out); err != nil {
			b.Fatal(err)
		}
	}
}
