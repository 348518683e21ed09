package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rofl/internal/ident"
	"rofl/internal/netem"
	"rofl/internal/overlay"
	"rofl/internal/telemetry"
)

// The live workloads: a ring of overlay.Nodes on real 127.0.0.1 UDP
// sockets (host loopback; no datagram crosses a real link), driven by a
// closed-loop generator that keeps a fixed window of packets in flight.

const (
	liveNodes       = 16
	liveStabilize   = 50 * time.Millisecond
	liveDeliveryBuf = 4096
	liveJoinTimeout = 5 * time.Second
	liveReadyWait   = 20 * time.Second
	liveGroupWait   = time.Second
	// liveLossAfter is how long a packet may stay unanswered before its
	// window slot is reclaimed and it is counted failed.
	liveLossAfter = 200 * time.Millisecond
	// minPayload holds the header the checks need: sequence number, send
	// time, destination index, window slot, and the trailing checksum.
	minPayload = 32
)

// liveRing is one ring built for one round.
type liveRing struct {
	ids   []ident.ID
	nodes []*overlay.Node
	taps  []*tap // nil when untraced
	// sorted lists node indices in ring (identifier) order.
	sorted []int
	joinUs []float64
	base   time.Time
}

// buildRing binds the nodes, joins them one after another through node 0
// and waits until the ring is ready. A traced ring hands every node a
// tapped socket; an untraced one lets the node bind its own, so the
// end-to-end figures run on the path a deployment runs.
func buildRing(ids []ident.ID, traced bool) (*liveRing, error) {
	r := &liveRing{ids: ids, base: time.Now()}
	for _, id := range ids {
		cfg := overlay.Config{
			Stabilize:      liveStabilize,
			EnableLiveness: true,
			DeliveryBuffer: liveDeliveryBuf,
			Registry:       telemetry.NewRegistry(),
		}
		if traced {
			udp, err := netem.ListenUDP("127.0.0.1:0")
			if err != nil {
				r.close()
				return nil, err
			}
			t := newTap(udp, r.base)
			r.taps = append(r.taps, t)
			cfg.Transport = t
		}
		n, err := overlay.New(id, cfg)
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes = append(r.nodes, n)
	}
	r.nodes[0].Bootstrap()
	for _, n := range r.nodes[1:] {
		start := time.Now()
		if err := n.Join(r.nodes[0].Addr(), liveJoinTimeout); err != nil {
			r.close()
			return nil, err
		}
		r.joinUs = append(r.joinUs, float64(time.Since(start))/1e3)
	}
	r.sorted = make([]int, len(ids))
	for i := range r.sorted {
		r.sorted[i] = i
	}
	sort.Slice(r.sorted, func(a, b int) bool { return ids[r.sorted[a]].Less(ids[r.sorted[b]]) })
	if err := r.awaitReady(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// consistent is the cluster supervisor's convergence predicate: every
// node's successor and predecessor follow sorted identifier order.
func (r *liveRing) consistent() bool {
	n := len(r.sorted)
	for k, i := range r.sorted {
		succ, _, ok := r.nodes[i].Successor()
		if !ok || succ != r.ids[r.sorted[(k+1)%n]] {
			return false
		}
		pred, _, ok := r.nodes[i].Predecessor()
		if !ok || pred != r.ids[r.sorted[(k-1+n)%n]] {
			return false
		}
	}
	return true
}

// groupsFull reports whether every node holds a whole successor group,
// correct or not.
func (r *liveRing) groupsFull() bool {
	want := min(overlay.SuccessorGroupSize, len(r.nodes)-1)
	for _, n := range r.nodes {
		if len(n.SuccessorGroup()) < want {
			return false
		}
	}
	return true
}

// awaitReady waits for ring consistency, then gives successor groups a
// bounded moment to fill. It does not wait for the group tails to be
// right: they do not always settle (see README, "Observations"), and the
// share that is right is reported as proto.succ_tail_correct_share.
func (r *liveRing) awaitReady() error {
	poll := func(cond func() bool, limit time.Duration) bool {
		deadline := time.Now().Add(limit)
		for !cond() {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(2 * time.Millisecond)
		}
		return true
	}
	if !poll(r.consistent, liveReadyWait) {
		return fmt.Errorf("ring of %d not consistent after %v", len(r.nodes), liveReadyWait)
	}
	poll(r.groupsFull, liveGroupWait)
	return nil
}

// succTailCorrectShare is the share of successor-group entries beyond the
// head that equal sorted order.
func (r *liveRing) succTailCorrectShare() float64 {
	n := len(r.sorted)
	var right, total int
	for k, i := range r.sorted {
		g := r.nodes[i].SuccessorGroup()
		for j := 1; j < min(overlay.SuccessorGroupSize, n-1); j++ {
			total++
			if j < len(g) && g[j] == r.ids[r.sorted[(k+1+j)%n]] {
				right++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(right) / float64(total)
}

// counters sums the overlay's registry counters over the ring.
type liveCounters struct {
	forwards, deliveryDrops, noRoute, ttl, control uint64
}

func (r *liveRing) counters() liveCounters {
	var c liveCounters
	for _, n := range r.nodes {
		ins := n.Instruments()
		c.forwards += ins.Forwards.Value()
		c.deliveryDrops += n.DroppedDeliveries()
		c.noRoute += ins.NoRouteDrops.Value()
		c.ttl += ins.TTLDrops.Value()
		c.control += ins.StabilizeRounds.Value() + ins.LivenessProbes.Value()
	}
	return c
}

func (r *liveRing) send(op liveOp, payload []byte) error {
	return r.nodes[op.Src].Send(r.ids[op.Dst], payload)
}

func (r *liveRing) deliveries() []<-chan overlay.Delivery {
	chans := make([]<-chan overlay.Delivery, len(r.nodes))
	for i, n := range r.nodes {
		chans[i] = n.Deliveries()
	}
	return chans
}

func (r *liveRing) close() {
	for _, n := range r.nodes {
		_ = n.Close() // the socket's close error changes nothing a round reports
	}
}

// slot is one place in the closed loop's window. seq is zero while the
// slot is free; the generator writes sent, then publishes seq.
type slot struct {
	seq  atomic.Uint64
	sent int64
}

// traffic is the closed-loop generator and its collectors. One goroutine
// (the caller of run) sends; one collector per node reads that node's
// Deliveries(), checks the payload and hands the window slot back.
type traffic struct {
	base   time.Time
	ops    []liveOp
	window int
	send   func(op liveOp, payload []byte) error

	slots []slot
	free  chan uint16
	seq   uint64
	next  int // position in ops, kept across phases

	// lat receives every delivery's latency, Node.Send to collector.
	lat *opTimes

	sent                                    int64
	delivered, wrongNode, corrupt, repeated atomic.Int64

	// Traced runs keep the generator's and the collectors' side of each
	// sampled packet.
	traced  bool
	origin  []sendRec // Node.Send call, by the generator
	readsMu sync.Mutex
	reads   map[uint64]int64 // seq -> collector read time

	collectors sync.WaitGroup
	buf        []byte
}

func newTraffic(base time.Time, ops []liveOp, window int, send func(liveOp, []byte) error, deliveries []<-chan overlay.Delivery) *traffic {
	t := &traffic{
		base: base, ops: ops, window: window, send: send, lat: &opStore,
		slots: make([]slot, window),
		free:  make(chan uint16, window),
		buf:   make([]byte, 0, 2048),
	}
	for i := 0; i < window; i++ {
		t.free <- uint16(i)
	}
	for i, ch := range deliveries {
		t.collectors.Add(1)
		go t.collect(i, ch)
	}
	return t
}

// wait returns once every collector has seen its channel close.
func (t *traffic) wait() { t.collectors.Wait() }

func (t *traffic) now() int64 { return int64(time.Since(t.base)) }

// fillPayload writes the packet's header, a filler that depends on the
// sequence number, and the checksum of everything before it.
func fillPayload(buf []byte, seq uint64, sent int64, dst, slot uint16) {
	binary.BigEndian.PutUint64(buf[0:], seq)
	binary.BigEndian.PutUint64(buf[8:], uint64(sent))
	binary.BigEndian.PutUint16(buf[16:], dst)
	binary.BigEndian.PutUint16(buf[18:], slot)
	body := len(buf) - 4
	for i := 20; i < body; i++ {
		buf[i] = byte(seq) + byte(i)
	}
	binary.BigEndian.PutUint32(buf[body:], crc32.ChecksumIEEE(buf[:body]))
}

var errBadPayload = errors.New("payload checksum mismatch")

func parsePayload(p []byte) (seq uint64, sent int64, dst, slot uint16, err error) {
	if len(p) < minPayload {
		return 0, 0, 0, 0, errBadPayload
	}
	body := len(p) - 4
	if crc32.ChecksumIEEE(p[:body]) != binary.BigEndian.Uint32(p[body:]) {
		return 0, 0, 0, 0, errBadPayload
	}
	return binary.BigEndian.Uint64(p[0:]), int64(binary.BigEndian.Uint64(p[8:])),
		binary.BigEndian.Uint16(p[16:]), binary.BigEndian.Uint16(p[18:]), nil
}

// collect checks every delivery at node: the payload is intact, names
// this node, and answers a packet still in flight (so no sequence number
// is accepted twice). A delivery that fails a check leaves its slot to be
// reclaimed, which counts the packet failed.
func (t *traffic) collect(node int, ch <-chan overlay.Delivery) {
	defer t.collectors.Done()
	for d := range ch {
		now := t.now()
		seq, sent, dst, sl, err := parsePayload(d.Payload)
		switch {
		case err != nil:
			t.corrupt.Add(1)
			continue
		case int(dst) != node:
			t.wrongNode.Add(1)
			continue
		case int(sl) >= len(t.slots) || !t.slots[sl].seq.CompareAndSwap(seq, 0):
			t.repeated.Add(1)
			continue
		}
		t.lat.record(time.Duration(now - sent))
		if t.traced && seq%traceEvery == 0 {
			t.readsMu.Lock()
			t.reads[seq] = now
			t.readsMu.Unlock()
		}
		t.delivered.Add(1)
		t.free <- sl
	}
}

// acquire takes a free window slot, reclaiming lost packets' slots while
// it waits.
func (t *traffic) acquire(timer *time.Timer) uint16 {
	select {
	case s := <-t.free:
		return s
	default:
	}
	for {
		timer.Reset(liveLossAfter / 4)
		select {
		case s := <-t.free:
			timer.Stop()
			return s
		case <-timer.C:
			t.reclaim()
		}
	}
}

// reclaim frees the slots of packets unanswered for liveLossAfter.
func (t *traffic) reclaim() {
	cutoff := t.now() - int64(liveLossAfter)
	for i := range t.slots {
		s := &t.slots[i]
		if seq := s.seq.Load(); seq != 0 && s.sent < cutoff && s.seq.CompareAndSwap(seq, 0) {
			t.free <- uint16(i)
		}
	}
}

// reset clears the counts and samples of the phase before.
func (t *traffic) reset(traced bool) {
	t.sent = 0
	t.delivered.Store(0)
	t.wrongNode.Store(0)
	t.corrupt.Store(0)
	t.repeated.Store(0)
	t.lat.reset()
	t.traced = traced
	t.origin, t.reads = nil, nil
	if traced {
		t.origin = make([]sendRec, 0, tapCap)
		t.reads = make(map[uint64]int64, tapCap)
	}
}

// run sends packets from the cyclic list until stop says so (it is asked
// every 64 packets with the count sent so far), then waits for the
// window to drain. It returns the wall time from the first send to the
// last answer.
func (t *traffic) run(stop func(sent int64) bool) time.Duration {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	start := time.Now()
	for ; t.sent%64 != 0 || !stop(t.sent); t.next++ {
		op := t.ops[t.next%len(t.ops)]
		sl := t.acquire(timer)
		t.seq++
		buf := t.buf[:max(int(op.Size), minPayload)]
		s := &t.slots[sl]
		s.sent = t.now()
		fillPayload(buf, t.seq, s.sent, op.Dst, sl)
		s.seq.Store(t.seq)
		t.sent++
		err := t.send(op, buf)
		if t.traced && t.seq%traceEvery == 0 && len(t.origin) < cap(t.origin) {
			t.origin = append(t.origin, sendRec{Key: dgKey(t.seq << 8), Start: s.sent, End: t.now()})
		}
		if err != nil && s.seq.CompareAndSwap(t.seq, 0) {
			t.free <- sl // never sent: counted failed like a lost packet, without the wait
		}
	}
	// Drain: hold every slot, which is every packet answered or reclaimed.
	held := make([]uint16, 0, t.window)
	for len(held) < t.window {
		held = append(held, t.acquire(timer))
	}
	elapsed := time.Since(start)
	for _, s := range held {
		t.free <- s
	}
	return elapsed
}

// failed is every packet sent and not delivered correctly to the node
// its payload names, exactly once.
func (t *traffic) failed() int64 { return t.sent - t.delivered.Load() }
