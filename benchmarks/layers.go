package main

import (
	"fmt"
	"runtime"
	"time"

	"rofl/internal/ident"
	"rofl/internal/linkstate"
	"rofl/internal/netem"
	"rofl/internal/proto"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
	"rofl/internal/wire"
)

// The isolated layer measurements of a traced run: each calls one
// layer's public functions in a loop on one goroutine, away from the ring
// or the simulator that uses them, so that a figure measured inside a
// workload can be split into what the layer costs alone and what
// contention adds.

// sink keeps the compiler from discarding a measured call's result.
var sink uint64

// nsPerCall times n calls of fn and returns the mean.
func nsPerCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func isolatedLayers(rc roundCtx, vals values) error {
	if err := udpIsolated(rc, vals); err != nil {
		return err
	}
	protoIsolated(rc, vals)
	identIsolated(rc, vals)
	cacheIsolated(rc, vals)
	return nil
}

// udpIsolated times UDP.Send and UDP.RecvInto between two idle sockets:
// a burst small enough for the receive buffer is sent, then read back, so
// every receive finds its datagram queued and neither side ever waits.
func udpIsolated(rc roundCtx, vals values) error {
	a, err := netem.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := netem.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	const burst = 32
	bursts := rc.size(200000, 2000) / burst
	pkt := wire.Packet{Type: wire.TypeData, TTL: wire.DefaultTTL, Payload: make([]byte, minPayload)}
	dgram, err := pkt.Marshal()
	if err != nil {
		return err
	}
	buf := make([]byte, 64*1024)
	dst := b.LocalAddr()
	sendBurst := func() error {
		for j := 0; j < burst; j++ {
			if err := a.Send(dst, dgram); err != nil {
				return err
			}
		}
		return nil
	}
	recvBurst := func() error {
		for j := 0; j < burst; j++ {
			if n, _, err := b.RecvInto(buf); err != nil || n != len(dgram) {
				return fmt.Errorf("isolated receive: %d bytes, %v", n, err)
			}
		}
		return nil
	}
	// Allocations are counted on a few bursts of their own: reading the
	// allocator's counters stops the world, which the timed loop is spared.
	const allocBursts = 64
	var sendAllocs, recvAllocs uint64
	for i := 0; i < allocBursts; i++ {
		m0 := mallocs()
		if err := sendBurst(); err != nil {
			return err
		}
		m1 := mallocs()
		if err := recvBurst(); err != nil {
			return err
		}
		sendAllocs += m1 - m0
		recvAllocs += mallocs() - m1
	}
	var sendNs, recvNs time.Duration
	for i := 0; i < bursts; i++ {
		start := time.Now()
		if err := sendBurst(); err != nil {
			return err
		}
		mid := time.Now()
		if err := recvBurst(); err != nil {
			return err
		}
		sendNs += mid.Sub(start)
		recvNs += time.Since(mid)
	}
	calls := float64(bursts * burst)
	vals["netem.udp_send_isolated_ns"] = float64(sendNs) / calls
	vals["netem.udp_recv_isolated_ns"] = float64(recvNs) / calls
	vals["netem.udp_send_allocs"] = float64(sendAllocs) / (allocBursts * burst)
	vals["netem.udp_recv_allocs"] = float64(recvAllocs) / (allocBursts * burst)
	return nil
}

// protoIsolated times Core.HandlePacket and Core.TickStabilize on a core
// given a ring member's shape: three successors, a predecessor, and the
// other members of a 16-node ring known.
func protoIsolated(rc roundCtx, vals values) {
	ids := genLiveIDs(rc.seed, liveNodes)
	order := append([]ident.ID(nil), ids...)
	sortIDs(order)
	peer := func(k int) proto.Peer {
		k = (k + len(order)) % len(order)
		return proto.Peer{ID: order[k], Addr: fmt.Sprintf("127.0.0.1:%d", 20000+k)}
	}
	core := proto.New(proto.Config{ID: order[0], Addr: peer(0).Addr})
	pred := peer(-1)
	core.InstallRing([]proto.Peer{peer(1), peer(2), peer(3)}, &pred)
	for k := 1; k < len(order); k++ {
		core.Learn(peer(k))
	}
	var acts proto.Actions
	payload := make([]byte, minPayload)
	n := rc.size(1000000, 10000)
	// Destinations beyond the successor group, so the packet is forwarded.
	fwd := wire.Packet{Type: wire.TypeData, Src: order[8], Payload: payload}
	vals["proto.handle_forward_ns"] = nsPerCall(n, func(i int) {
		fwd.TTL, fwd.Dst = wire.DefaultTTL, order[4+i%8]
		core.HandlePacket(&fwd, pred.Addr, &acts)
		sink += uint64(len(acts.Sends))
		acts.Reset()
	})
	local := wire.Packet{Type: wire.TypeData, Src: order[8], Dst: order[0], Payload: payload}
	vals["proto.handle_deliver_ns"] = nsPerCall(n, func(int) {
		core.HandlePacket(&local, pred.Addr, &acts)
		sink += uint64(len(acts.Delivers))
		acts.Reset()
	})
	vals["proto.stabilize_tick_ns"] = nsPerCall(n/50, func(int) {
		core.TickStabilize(&acts)
		sink += uint64(len(acts.Sends))
		acts.Reset()
		// Answer for the successor, or the tick after next evicts it.
		core.InstallRing([]proto.Peer{peer(1), peer(2), peer(3)}, &pred)
	})
}

func identIsolated(rc roundCtx, vals values) {
	rng := newRand(rc.seed, streamLayers)
	ids := make([]ident.ID, 4096)
	for i := range ids {
		ids[i] = ident.Random(rng)
	}
	n := rc.size(4000000, 40000)
	at := func(i int) ident.ID { return ids[i&(len(ids)-1)] }
	vals["ident.distance_ns"] = nsPerCall(n, func(i int) {
		d := at(i).Distance(at(i + 1))
		sink += uint64(d[0])
	})
	vals["ident.progress_ns"] = nsPerCall(n, func(i int) {
		if ident.Progress(at(i), at(i+1), at(i+2)) {
			sink++
		}
	})
	// Half the calls find their identifier interned, half add it.
	table := ident.NewInternSize(n / 2)
	fresh := make([]ident.ID, n/2)
	for i := range fresh {
		fresh[i] = ident.Random(rng)
	}
	vals["ident.intern_ns"] = nsPerCall(n, func(i int) {
		sink += uint64(table.Handle(fresh[i%len(fresh)]))
	})
}

// cacheIsolated times the pointer cache at the occupancy the vring
// workloads reach — Insert of a new pointer into a cache already holding
// one per host (the sorted slice shifts, nothing is evicted: at 70000
// entries of capacity the workload never fills it), and Lookup — and the
// link-state path query every join makes.
func cacheIsolated(rc roundCtx, vals values) {
	rng := newRand(rc.seed, streamLayers+1)
	hosts := rc.size(vringHosts, 100)
	cache := vring.NewPointerCache(vring.DefaultOptions().CacheCapacity)
	ptrs := make([]vring.Pointer, 2*hosts)
	for i := range ptrs {
		ptrs[i] = vring.Pointer{ID: ident.Random(rng), Router: vring.RouterID(i % 300)}
	}
	for _, p := range ptrs[:hosts] {
		cache.Insert(p)
	}
	vals["vring.cache_insert_ns"] = nsPerCall(hosts, func(i int) {
		cache.Insert(ptrs[hosts+i])
	})
	n := rc.size(400000, 4000)
	vals["vring.cache_lookup_ns"] = nsPerCall(n, func(i int) {
		if p, ok := cache.Lookup(ptrs[i%len(ptrs)].ID, ptrs[(i+7)%len(ptrs)].ID); ok {
			sink += uint64(p.Router)
		}
	})

	isp := topology.GenISP(topology.AS1221)
	ls := linkstate.New(isp.Graph, sim.NewMetrics())
	routers := isp.Graph.NumNodes()
	vals["linkstate.path_ns"] = nsPerCall(n, func(i int) {
		a, b := (i*7919)%routers, (i*104729+13)%routers
		sink += uint64(len(ls.Path(topology.NodeID(a), topology.NodeID(b))))
	})
}
