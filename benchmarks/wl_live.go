package main

import (
	"runtime"
	"time"

	"rofl/internal/overlay"
)

// liveShape is what separates the two live workloads.
type liveShape struct {
	name   string
	window int
	sizes  []int
	warmup int
}

var (
	// Saturation: 32 packets of the smallest size in flight keep every
	// core busy, so per-hop CPU sets the rate.
	satShape = liveShape{name: "udp_ring_sat", window: 32, sizes: []int{32}, warmup: 20000}
	// Ping: never more packets in flight than the box has cores, so no
	// queue forms and every hop is a wake-up on an idle core. The 1200 B
	// half exposes copy costs.
	pingShape = liveShape{name: "udp_ring_ping", window: 2, sizes: []int{64, 1200}, warmup: 10000}
)

// liveRound builds a ring, warms it, and drives the closed loop for the
// round's budget.
func liveRound(rc roundCtx, shape liveShape) (roundOut, error) {
	out := roundOut{vals: values{}}
	ids := genLiveIDs(rc.seed, liveNodes)
	ops := genLiveOps(rc.seed, liveNodes, shape.sizes)

	heap0 := liveHeap()
	setup := time.Now()
	ring, err := buildRing(ids, rc.traced)
	if err != nil {
		return out, err
	}
	tr := newTraffic(ring.base, ops, shape.window, ring.send, ring.deliveries())
	defer func() {
		ring.close()
		tr.wait()
	}()
	warm := int64(rc.size(shape.warmup, 200))
	tr.reset(false)
	tr.run(func(sent int64) bool { return sent >= warm })
	out.vals["setup_s"] = time.Since(setup).Seconds()

	tr.reset(rc.traced)
	ring.record(true)
	idle0 := ring.idle()
	c0 := ring.counters()
	ph := beginPhase()
	seg := startSegments()
	deadline := time.Now().Add(rc.budget)
	elapsed := tr.run(func(int64) bool {
		seg.tick(tr.delivered.Load())
		return !time.Now().Before(deadline)
	})
	out.readings = seg.end(tr.delivered.Load())
	cost := ph.end()
	ring.record(false)
	c1 := ring.counters()
	idle1 := ring.idle()
	heap := heapMB(heap0)

	delivered := tr.delivered.Load()
	out.attempted, out.failed, out.measured = tr.sent, tr.failed(), elapsed
	if delivered == 0 {
		out.problemf("no packet was delivered")
		return out, nil
	}
	if n := tr.wrongNode.Load(); n > 0 {
		out.problemf("%d deliveries arrived at a node their payload does not name", n)
	}
	if n := tr.corrupt.Load(); n > 0 {
		out.problemf("%d deliveries failed their checksum", n)
	}
	if n := tr.repeated.Load(); n > 0 {
		out.problemf("%d deliveries repeated a sequence number or came after their slot was reclaimed", n)
	}
	if share := float64(out.failed) / float64(out.attempted); share >= 0.001 {
		out.problemf("failed share %.5f of %d packets is not below 0.001", share, out.attempted)
	}
	if !ring.consistent() {
		out.problemf("ring no longer consistent at the end of the measured phase")
	}

	d := tr.lat.micros()
	out.vals["op_p50_us"] = d.P50
	out.vals["live_heap_mb"] = heap

	if rc.traced {
		out.vals[tracedRate(shape.name)] = median(out.readings["ops_per_s"])
		out.vals["overlay.delivery_us.p50"] = d.P50
		out.vals["overlay.delivery_us.p99"] = d.Tail
		out.vals["overlay.tx_per_delivered"] = float64(c1.forwards-c0.forwards) / float64(delivered)
		out.vals["overlay.allocs_per_delivered"] = float64(cost.Mallocs) / float64(delivered)
		out.vals["overlay.bytes_per_delivered"] = float64(cost.Byte) / float64(delivered)
		out.vals["overlay.delivery_drops"] = float64(c1.deliveryDrops - c0.deliveryDrops)
		out.vals["overlay.no_route_drops"] = float64(c1.noRoute - c0.noRoute)
		out.vals["overlay.ttl_drops"] = float64(c1.ttl - c0.ttl)
		out.vals["overlay.control_pkts_per_s"] = float64(c1.control-c0.control) / elapsed.Seconds()
		out.vals["overlay.cpu_busy_share"] = float64(cost.CPU) / (float64(elapsed) * float64(runtime.GOMAXPROCS(0)))
		out.vals["netem.recv_idle_share"] = float64(idle1-idle0) / (float64(len(ring.nodes)) * float64(elapsed))
		out.vals["proto.join_us.p50"] = median(ring.joinUs)
		out.vals["proto.succ_tail_correct_share"] = ring.succTailCorrectShare()
		// The read loops append to their records until the sockets close.
		ring.close()
		tr.wait()
		out.spans = liveLedger(out.vals, ring, tr)
		dry := dryLoop(rc, shape, ops)
		out.vals["loadgen.cpu_share"] = dry.cpuUs / median(out.readings["cpu_us_per_op"])
		out.vals["overlay.allocs_per_delivered"] -= dry.allocs
		out.vals["overlay.bytes_per_delivered"] -= dry.bytes
	}
	return out, nil
}

// record switches the taps' span recording on or off.
func (r *liveRing) record(on bool) {
	for _, t := range r.taps {
		t.on.Store(on)
	}
}

// idle sums the time the ring's read loops have spent blocked in
// RecvInto. Only a traced ring knows.
func (r *liveRing) idle() int64 {
	var ns int64
	for _, t := range r.taps {
		ns += t.idleNs.Load()
	}
	return ns
}

// dryCost is what the generator and its collectors cost by themselves.
type dryCost struct {
	cpuUs, allocs, bytes float64 // per packet
}

// dryLoop runs the same generator and collectors with the ring taken
// out: a send copies the payload into the destination's channel directly.
// What it costs is the load generator's own share of the live figures.
func dryLoop(rc roundCtx, shape liveShape, ops []liveOp) dryCost {
	chans := make([]chan overlay.Delivery, liveNodes)
	recv := make([]<-chan overlay.Delivery, liveNodes)
	for i := range chans {
		chans[i] = make(chan overlay.Delivery, liveDeliveryBuf)
		recv[i] = chans[i]
	}
	// One buffer per window slot: a slot's buffer is free again once the
	// collector has handed the slot back.
	bufs := make([][]byte, shape.window)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
	}
	send := func(op liveOp, p []byte) error {
		_, _, _, sl, err := parsePayload(p)
		if err != nil {
			return err
		}
		chans[op.Dst] <- overlay.Delivery{Payload: append(bufs[sl][:0], p...)}
		return nil
	}
	tr := newTraffic(time.Now(), ops, shape.window, send, recv)
	n := int64(rc.size(200000, 2000))
	tr.reset(false)
	ph := beginPhase()
	tr.run(func(sent int64) bool { return sent >= n })
	cost := ph.end()
	for _, ch := range chans {
		close(ch)
	}
	tr.wait()
	return dryCost{
		cpuUs:  float64(cost.CPU) / 1e3 / float64(n),
		allocs: float64(cost.Mallocs) / float64(n),
		bytes:  float64(cost.Byte) / float64(n),
	}
}
