// Package overlay runs the intradomain ROFL protocol over a datagram
// transport. All protocol logic — ring maintenance, greedy forwarding,
// failure eviction, quarantine, gossip, liveness — lives in the pure
// state machine of internal/proto; this package is the live driver
// around one proto.Core: it owns the lock, the UDP/netem read loop, the
// retry and stabilization timers, the application delivery channel, and
// the telemetry wiring, feeding decoded packets and timer ticks into
// the core and executing the actions it emits on a netem.Transport.
//
// The transport is abstracted behind netem.Transport: live deployments
// bind real UDP sockets, while tests drive the same node code through
// netem's deterministic fault-injecting fabric. The protocol is hardened
// accordingly: control requests (join, stabilize) carry request IDs and
// are retried with exponential backoff, handlers are idempotent under
// retransmission, stale replies are discarded, evicted peers are
// remembered and probed so rings split by a partition re-merge after it
// heals, and delivery to the application never blocks the read loop.
//
// The overlay is deliberately one level (no physical-topology source
// routes — every node can reach every other over the transport, playing
// the role the OSPF substrate plays inside an ISP).
package overlay

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rofl/internal/ident"
	"rofl/internal/netem"
	"rofl/internal/proto"
	"rofl/internal/telemetry"
	"rofl/internal/wire"
)

// errTimeout reports a request that received no answer in time.
var errTimeout = errors.New("overlay: request timed out")

// errClosed reports an operation on a closed node.
var errClosed = errors.New("overlay: node closed")

// errBusy reports that the in-flight request table is full.
var errBusy = errors.New("overlay: too many in-flight requests")

// Delivery is handed to the application when a data packet arrives.
type Delivery struct {
	Src     ident.ID
	Payload []byte
}

// Gate decides whether a data packet may be delivered to the local
// application — the hook ROFL's default-off / capability admission
// (paper §5.3) plugs into. The capability bytes come straight from the
// packet's wire header.
type Gate func(src ident.ID, capability []byte) error

// RetryPolicy shapes the retransmission schedule of control requests:
// the first retransmit fires after Initial, each subsequent wait is
// multiplied by Multiplier and capped at Max, until the caller's
// deadline expires. A Multiplier below 1, zero included, holds every
// wait at Initial.
type RetryPolicy struct {
	Initial    time.Duration
	Max        time.Duration
	Multiplier float64
}

// defaultRetryPolicy is tuned for LAN/loopback latencies: fast first
// retry, doubling to a 2s cap.
func defaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Initial: 120 * time.Millisecond, Max: 2 * time.Second, Multiplier: 2}
}

// maxInFlight bounds the request table; register past this fails with
// errBusy instead of growing without limit.
const maxInFlight = 64

// SuccessorGroupSize is the number of successors an overlay node keeps.
const SuccessorGroupSize = proto.SuccessorGroupSize

// Config configures a Node. The zero value is usable: it binds a UDP
// socket on a random loopback port, uses the default retry policy, no
// gate, a 64-entry delivery buffer, no telemetry, and starts neither
// maintenance loop. Everything is fixed at construction; there are no
// setters.
type Config struct {
	// Transport attaches the node to an existing transport (a UDP
	// socket on a chosen address, a netem endpoint, a fault-wrapped
	// socket, …); nil binds a UDP socket on "127.0.0.1:0". The node owns
	// it and closes it on Close.
	Transport netem.Transport
	// Retry shapes control-request retransmission; the zero value means
	// defaultRetryPolicy().
	Retry RetryPolicy
	// Gate, when set, is consulted before any data packet is delivered
	// locally; packets it rejects are dropped silently, as a default-off
	// router would drop them (§5.3).
	Gate Gate
	// Stabilize, when positive, starts the ring-maintenance loop at that
	// interval as soon as the node is constructed. Zero leaves it off.
	Stabilize time.Duration
	// EnableLiveness starts the BFD-style successor prober with the
	// Liveness parameters (zero fields take defaults).
	EnableLiveness bool
	// Liveness shapes the failure detector; only consulted when
	// EnableLiveness is set.
	Liveness LivenessParams
	// DeliveryBuffer is the application channel depth; zero means 64.
	DeliveryBuffer int
	// Registry, when set, wires the node's counters into it at
	// construction.
	Registry *telemetry.Registry
	// Events, when set, receives the node's structured events.
	Events *telemetry.EventLog
}

// Node is one overlay participant: a flat label bound to a transport,
// driving a proto.Core.
type Node struct {
	id ident.ID
	tr netem.Transport

	// mu serializes access to the core (which is not goroutine-safe by
	// design) and the driver state next to it.
	mu     sync.Mutex
	core   *proto.Core
	closed bool
	// retry and gate are fixed at construction, so Join and the delivery
	// path read them without taking mu.
	retry RetryPolicy
	gate  Gate
	// pending maps an outstanding join request ID to the waiter's
	// completion channel; bounded by maxInFlight.
	pending map[uint64]chan error

	deliveries chan Delivery
	dropCount  atomic.Uint64 // deliveries dropped on a full channel

	// ins is the telemetry wiring, swapped atomically so setTelemetry
	// is safe against a running read loop. Never nil: an unwired node
	// carries a zero Instruments (all handles nil and nil-safe), which
	// keeps the hot path branch-free and allocation-free.
	ins atomic.Pointer[Instruments]

	stabilizeStop chan struct{}
	stabilizeOnce sync.Once
	livenessStop  chan struct{}
	livenessOnce  sync.Once

	done chan struct{} // closed by Close; unblocks pending requests
	wg   sync.WaitGroup
}

// New builds a node from cfg and starts its receive loop (plus the
// stabilize and liveness loops when the config asks for them).
func New(id ident.ID, cfg Config) (*Node, error) {
	tr := cfg.Transport
	if tr == nil {
		var err error
		tr, err = netem.ListenUDP("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("overlay: %w", err)
		}
	}
	retry := cfg.Retry
	if retry == (RetryPolicy{}) {
		retry = defaultRetryPolicy()
	}
	depth := cfg.DeliveryBuffer
	if depth <= 0 {
		depth = 64
	}
	n := &Node{
		id:         id,
		tr:         tr,
		core:       proto.New(proto.Config{ID: id, Addr: tr.LocalAddr(), Liveness: cfg.Liveness}),
		retry:      retry,
		gate:       cfg.Gate,
		pending:    make(map[uint64]chan error),
		deliveries: make(chan Delivery, depth),
		done:       make(chan struct{}),
	}
	n.ins.Store(&Instruments{})
	if cfg.Registry != nil || cfg.Events != nil {
		n.setTelemetry(cfg.Registry, cfg.Events)
	}
	n.wg.Add(1)
	go n.readLoop()
	if cfg.Stabilize > 0 {
		n.startStabilize(cfg.Stabilize)
	}
	if cfg.EnableLiveness {
		n.startLiveness()
	}
	return n, nil
}

// ID returns the node's flat label.
func (n *Node) ID() ident.ID { return n.id }

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.tr.LocalAddr() }

// Deliveries returns the channel of received data packets.
func (n *Node) Deliveries() <-chan Delivery { return n.deliveries }

// DroppedDeliveries returns how many data packets were discarded because
// the application was not draining Deliveries — the read loop never
// blocks on a slow consumer.
func (n *Node) DroppedDeliveries() uint64 { return n.dropCount.Load() }

// Close shuts the node down: stops the maintenance loops, closes the
// transport (unblocking the read loop), waits for every driver
// goroutine, then closes the delivery channel. Idempotent; any timer or
// liveness event that fires after Close is a no-op.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	stop := n.stabilizeStop
	lstop := n.livenessStop
	n.mu.Unlock()
	close(n.done)
	if stop != nil {
		n.stabilizeOnce.Do(func() { close(stop) })
	}
	if lstop != nil {
		n.livenessOnce.Do(func() { close(lstop) })
	}
	err := n.tr.Close()
	n.wg.Wait()
	close(n.deliveries)
	return err
}

// startStabilize runs the core's stabilization round every interval
// (see proto.Core.TickStabilize for the protocol) until Close. New calls
// it at most once.
func (n *Node) startStabilize(interval time.Duration) {
	stop := make(chan struct{})
	n.mu.Lock()
	n.stabilizeStop = stop
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				n.tick((*proto.Core).TickStabilize)
			}
		}
	}()
}

// actsPool recycles Actions buffers across driver entry points (sends,
// ticks, joins); a recycled buffer keeps its slice capacity, so the
// steady-state data path allocates nothing.
var actsPool = sync.Pool{New: func() any { return new(proto.Actions) }}

func getActs() *proto.Actions  { return actsPool.Get().(*proto.Actions) }
func putActs(a *proto.Actions) { a.Reset(); actsPool.Put(a) }

// tick feeds one maintenance tick (the core's TickStabilize or
// TickLiveness) into the core and executes what it emits. A tick that
// fires after Close is a no-op.
func (n *Node) tick(feed func(*proto.Core, *proto.Actions)) {
	a := getActs()
	defer putActs(a)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	feed(n.core, a)
	n.mu.Unlock()
	_ = n.run(a)
}

// run executes the actions one core transition emitted: transmit the
// sends, fold the hot-path notes into counters, and divert to runCold
// for anything heavier (deliveries, join completions, failure events).
// It returns the first transmit error and resets a for reuse.
func (n *Node) run(a *proto.Actions) error {
	ins := n.ins.Load()
	var firstErr error
	for i := range a.Sends {
		if err := n.send(a.Sends[i].Addr, a.Sends[i].Pkt); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	cold := len(a.Delivers) > 0 || len(a.Joins) > 0
	for i := range a.Notes {
		switch a.Notes[i].Kind {
		case proto.NoteForward:
			ins.Forwards.Inc()
		case proto.NoteNoRoute:
			ins.NoRouteDrops.Inc()
		case proto.NoteTTLDrop:
			ins.TTLDrops.Inc()
		case proto.NoteStabRound:
			ins.StabilizeRounds.Inc()
		case proto.NoteLivenessProbe:
			ins.LivenessProbes.Inc()
		case proto.NoteDeliver:
			// Counted as Delivered only after the gate admits it (runCold).
		default:
			cold = true
		}
	}
	if cold {
		n.runCold(a, ins)
	}
	a.Reset()
	return firstErr
}

// runCold executes the control-plane actions of a transition: local
// deliveries (gate check, payload copy, non-blocking channel hand-off),
// join completions, and the counters and structured events behind
// evictions, predecessor clears, and served joins.
func (n *Node) runCold(a *proto.Actions, ins *Instruments) {
	for i := range a.Delivers {
		d := a.Delivers[i]
		if n.gate != nil {
			if err := n.gate(d.Src, d.Capability); err != nil {
				ins.GateDrops.Inc()
				continue // default-off: drop unauthorized traffic
			}
		}
		// The payload aliases the read loop's decode buffer; the copy is
		// the ownership-transfer contract with the asynchronous consumer.
		n.deliver(Delivery{Src: d.Src, Payload: append([]byte(nil), d.Payload...)}, ins)
	}
	for _, jr := range a.Joins {
		n.mu.Lock()
		ch, ok := n.pending[jr.ReqID]
		if ok {
			delete(n.pending, jr.ReqID)
		}
		n.mu.Unlock()
		if ok {
			select {
			case ch <- jr.Err:
			default:
			}
		}
	}
	for _, nt := range a.Notes {
		switch nt.Kind {
		case proto.NoteSuccEvicted:
			ins.SuccEvictions.Inc()
			if nt.Reason == proto.ReasonLivenessTimeout {
				ins.LivenessFailovers.Inc()
			}
			ins.Events.Warn(eventSuccEvicted,
				"peer", nt.Peer.Short(), "addr", nt.Addr, "reason", nt.Reason)
		case proto.NotePredCleared:
			ins.PredClears.Inc()
			ins.Events.Info(eventPredCleared,
				"peer", nt.Peer.Short(), "addr", nt.Addr, "reason", nt.Reason)
		case proto.NoteJoinServed:
			ins.JoinsServed.Inc()
			ins.Events.Info(eventJoinServed, "joiner", nt.Peer.Short(), "addr", nt.Addr)
		}
	}
}

// deliver hands a packet to the application without ever blocking the
// read loop: when the consumer is not draining, the packet is dropped
// and counted instead.
func (n *Node) deliver(d Delivery, ins *Instruments) {
	select {
	case n.deliveries <- d:
		ins.Delivered.Inc()
	default:
		n.dropCount.Add(1)
		ins.DeliveryDrops.Inc()
	}
}

// SuccessorGroup returns a snapshot of the successor group's
// identifiers.
func (n *Node) SuccessorGroup() []ident.ID {
	n.mu.Lock()
	defer n.mu.Unlock()
	succs := n.core.Successors()
	out := make([]ident.ID, len(succs))
	for i, e := range succs {
		out[i] = e.ID
	}
	return out
}

// Successor returns the immediate successor (for tests and ring
// inspection).
func (n *Node) Successor() (ident.ID, string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.core.Successor()
	return s.ID, s.Addr, ok
}

// Predecessor returns the predecessor pointer.
func (n *Node) Predecessor() (ident.ID, string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.core.Predecessor()
	return p.ID, p.Addr, ok
}

// CheckRing holds live nodes' ring pointers to sorted identifier order
// (ident.CheckRing) and returns the first fault.
func CheckRing(nodes []*Node) error {
	_, err := ident.CheckRing(len(nodes), SuccessorGroupSize, func(i int) ident.ID { return nodes[i].ID() },
		func(id ident.ID) ident.ID { return id }, func(i int) []ident.ID { return nodes[i].SuccessorGroup() },
		func(i int) (ident.ID, bool) { p, _, ok := nodes[i].Predecessor(); return p, ok })
	return err
}

// Bootstrap makes this node the first ring member: it is its own
// successor and predecessor.
func (n *Node) Bootstrap() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.core.Bootstrap()
}

// register allocates a request ID and its completion channel in the
// bounded in-flight table.
func (n *Node) register() (uint64, chan error, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return 0, nil, errClosed
	}
	if len(n.pending) >= maxInFlight {
		return 0, nil, errBusy
	}
	id := n.core.NextReqID()
	ch := make(chan error, 1)
	n.pending[id] = ch
	return id, ch, nil
}

func (n *Node) unregister(id uint64) {
	n.mu.Lock()
	delete(n.pending, id)
	n.core.AbortJoin(id)
	n.mu.Unlock()
}

// Join splices the node into the ring through any existing member: a
// join request is greedy-routed toward the node's own identifier; the
// predecessor that receives it replies with the successor set and
// notifies its old successor (§3.1). The request is retried with
// backoff until timeout — a single lost datagram does not fail the
// join — and retries are idempotent at the predecessor.
func (n *Node) Join(via string, timeout time.Duration) error {
	ins := n.ins.Load()
	id, ch, err := n.register()
	if err != nil {
		return fmt.Errorf("overlay: join via %s: %w", via, err)
	}
	defer n.unregister(id)
	a := getActs()
	defer putActs(a)
	n.mu.Lock()
	n.core.StartJoin(id, via, a)
	n.mu.Unlock()
	retry := n.retry
	deadline := time.Now().Add(timeout)
	backoff := retry.Initial
	if backoff <= 0 {
		backoff = timeout
	}
	// exhausted reports the retry budget running dry: the structured
	// event and counter every operator-facing timeout goes through.
	exhausted := func(attempt int) error {
		ins.RequestTimeouts.Inc()
		ins.Events.Warn(eventRequestTimeout,
			"type", wire.TypeJoinRequest.String(), "to", via, "attempts", attempt, "timeout", timeout)
		return fmt.Errorf("overlay: join via %s: %w after %d attempts", via, errTimeout, attempt)
	}
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			ins.Retransmits.Inc()
			n.mu.Lock()
			if !n.closed {
				n.core.RetryJoin(id, a)
			}
			n.mu.Unlock()
		}
		if err := n.run(a); err != nil {
			return fmt.Errorf("overlay: join via %s: %w", via, err)
		}
		wait := backoff
		if rem := time.Until(deadline); rem < wait {
			wait = rem
		}
		if wait <= 0 {
			return exhausted(attempt)
		}
		t := time.NewTimer(wait)
		select {
		case err := <-ch:
			t.Stop()
			return err // nil on success; the core's decode error otherwise
		case <-n.done:
			t.Stop()
			return fmt.Errorf("overlay: join via %s: %w", via, errClosed)
		case <-t.C:
			if !time.Now().Before(deadline) {
				return exhausted(attempt)
			}
			if retry.Multiplier > 1 {
				backoff = time.Duration(float64(backoff) * retry.Multiplier)
			}
			if retry.Max > 0 && backoff > retry.Max {
				backoff = retry.Max
			}
		}
	}
}

// Send greedy-routes a data payload toward dst.
func (n *Node) Send(dst ident.ID, payload []byte) error {
	return n.SendWithCapability(dst, payload, nil)
}

// SendWithCapability greedy-routes a data payload carrying a capability
// token in the wire header (§5.3): the destination's gate verifies it
// before delivering.
func (n *Node) SendWithCapability(dst ident.ID, payload, capability []byte) error {
	a := getActs()
	defer putActs(a)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errClosed
	}
	n.core.Originate(dst, payload, capability, a)
	n.mu.Unlock()
	return n.run(a)
}

// sendBufs pools marshal buffers across sends: every Transport
// implementation treats the payload as caller-owned once Send returns
// (UDP writes synchronously, the netem fabric and Fault wrapper copy),
// so the buffer can go straight back to the pool. This keeps the
// per-hop forward path allocation-free.
var sendBufs = sync.Pool{New: func() any { return new([]byte) }}

func (n *Node) send(addr string, pkt *wire.Packet) error {
	bp := sendBufs.Get().(*[]byte)
	buf, err := pkt.AppendTo((*bp)[:0])
	if err != nil {
		sendBufs.Put(bp)
		return fmt.Errorf("overlay: marshal: %w", err)
	}
	*bp = buf
	err = n.tr.Send(addr, buf)
	sendBufs.Put(bp)
	if err != nil {
		return fmt.Errorf("overlay: sending to %s: %w", addr, err)
	}
	return nil
}

func (n *Node) readLoop() {
	defer n.wg.Done()
	// The loop owns one receive buffer (when the transport can fill a
	// caller-provided one) and one decode packet, reused across
	// datagrams: handlers run synchronously and copy what they keep
	// (runCold copies delivered payloads), so steady-state receive costs
	// no allocation.
	recvInto, buffered := n.tr.(netem.BufferedTransport)
	var recvBuf []byte
	if buffered {
		recvBuf = make([]byte, 64*1024)
	}
	var pkt wire.Packet
	a := getActs()
	defer putActs(a)
	for {
		var buf []byte
		var from string
		var err error
		if buffered {
			var ln int
			ln, from, err = recvInto.RecvInto(recvBuf)
			buf = recvBuf[:ln]
		} else {
			buf, from, err = n.tr.Recv()
		}
		if err != nil {
			return // closed
		}
		if err := pkt.DecodeFromBytes(buf); err != nil {
			continue // drop malformed datagrams
		}
		n.handle(&pkt, from, a)
	}
}

// handle feeds one decoded packet into the core under the lock, then
// executes the emitted actions outside it. Emitted sends may alias pkt,
// and run transmits them before handle returns — satisfying the core's
// contract that the driver not reuse pkt until the sends are out. A
// packet arriving after Close is dropped.
//
// The caller owns a: the read loop holds one Actions buffer for its
// whole life, so the per-datagram path never touches the pool.
func (n *Node) handle(pkt *wire.Packet, from string, a *proto.Actions) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		a.Reset()
		return
	}
	n.core.HandlePacket(pkt, from, a)
	n.mu.Unlock()
	_ = n.run(a)
}

// Ring returns the node's view of the ring, for debugging: predecessor,
// self, then successors.
func (n *Node) Ring() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.Ring()
}
