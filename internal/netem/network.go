package netem

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Network is an in-process emulated datagram fabric. Endpoints attach by
// name, and every directed pair of endpoints is a link with its own
// fault schedule (LinkParams) and its own RNG derived from the network
// seed — so a fixed seed plus a fixed per-link send order reproduces the
// exact same loss/duplicate/reorder decisions on every run.
//
// Deliveries are sequenced by a single dispatcher goroutine draining a
// (due-time, send-sequence) priority queue: packets scheduled for the
// same instant arrive in send order, so a fault-free link is strictly
// FIFO and reordering happens only when the schedule says so.
//
// All mutating calls (SetDefaults, SetLink, Partition, Heal) take effect
// immediately for packets sent afterwards, which is how chaos tests
// script phases: join under loss, split, heal, assert reconvergence.
type Network struct {
	mu         sync.Mutex
	seed       int64
	defaults   LinkParams
	eps        map[string]*Endpoint
	links      map[linkKey]*link
	partitions map[string]map[string]bool // name → set of addresses on side A
	queue      deliveryHeap
	seq        uint64
	closed     bool

	wake    chan struct{} // nudges the dispatcher after a push
	stopped chan struct{} // closed by Close
	wg      sync.WaitGroup
}

type linkKey struct{ src, dst string }

type link struct {
	rng       *rand.Rand
	override  *LinkParams // nil → network defaults apply
	stats     LinkStats
	busyUntil time.Time // bandwidth serialization clock
}

// delivery is one scheduled arrival.
type delivery struct {
	due  time.Time
	seq  uint64 // tiebreak: FIFO among equal due times
	dst  *Endpoint
	link *link
	d    datagram
}

type deliveryHeap []delivery

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h deliveryHeap) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)    { *h = append(*h, x.(delivery)) }
func (h *deliveryHeap) Pop() any      { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h deliveryHeap) peek() delivery { return h[0] }

// NewNetwork creates an emulated fabric whose fault decisions derive
// from seed.
func NewNetwork(seed int64) *Network {
	n := &Network{
		seed:       seed,
		eps:        make(map[string]*Endpoint),
		links:      make(map[linkKey]*link),
		partitions: make(map[string]map[string]bool),
		wake:       make(chan struct{}, 1),
		stopped:    make(chan struct{}),
	}
	n.wg.Add(1)
	go n.dispatch()
	return n
}

// dispatch delivers queued packets when they come due, in (due, seq)
// order. It runs on the wall clock by design: every fate and delay was
// drawn from the link's seeded rng at send time, so which select case
// wins moves only delivery jitter, never a fate.
func (n *Network) dispatch() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		if n.queue.Len() == 0 {
			n.mu.Unlock()
			select {
			case <-n.wake:
				continue
			case <-n.stopped:
				return
			}
		}
		now := time.Now()
		next := n.queue.peek()
		if next.due.After(now) {
			n.mu.Unlock()
			t := time.NewTimer(next.due.Sub(now))
			select {
			case <-t.C:
			case <-n.wake: // an earlier packet may have been scheduled
				t.Stop()
			case <-n.stopped:
				t.Stop()
				return
			}
			continue
		}
		dv := heap.Pop(&n.queue).(delivery)
		select {
		case <-dv.dst.closed:
			dv.link.stats.Unrouted++
		default:
			select {
			case dv.dst.inbox <- dv.d:
				dv.link.stats.Delivered++
			default:
				dv.link.stats.InboxDropped++
				dv.dst.drops.Add(1)
			}
		}
		n.mu.Unlock()
	}
}

// SetDefaults installs the fault schedule used by every link without a
// per-link override. Takes effect immediately on all such links.
func (n *Network) SetDefaults(p LinkParams) {
	n.mu.Lock()
	n.defaults = p
	n.mu.Unlock()
}

// SetLink overrides the fault schedule of the directed link src→dst.
func (n *Network) SetLink(src, dst string, p LinkParams) {
	n.mu.Lock()
	n.linkLocked(src, dst).override = &p
	n.mu.Unlock()
}

// ClearLink removes a per-link override; the link reverts to defaults.
func (n *Network) ClearLink(src, dst string) {
	n.mu.Lock()
	n.linkLocked(src, dst).override = nil
	n.mu.Unlock()
}

// Partition installs a named two-way split: addresses in sideA can only
// reach each other, and everyone else can only reach everyone else.
// Multiple named partitions compose (a packet is dropped if any active
// partition separates its endpoints). Heal removes the split by name.
func (n *Network) Partition(name string, sideA []string) {
	set := make(map[string]bool, len(sideA))
	for _, a := range sideA {
		set[a] = true
	}
	n.mu.Lock()
	n.partitions[name] = set
	n.mu.Unlock()
}

// Heal removes a named partition. Healing an unknown name is a no-op.
func (n *Network) Heal(name string) {
	n.mu.Lock()
	delete(n.partitions, name)
	n.mu.Unlock()
}

// stats returns a snapshot of the directed link src→dst counters.
func (n *Network) stats(src, dst string) LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[linkKey{src, dst}]; ok {
		return l.stats
	}
	return LinkStats{}
}

// TotalStats aggregates the counters of every link.
func (n *Network) TotalStats() LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out LinkStats
	for _, l := range n.links {
		out.add(l.stats)
	}
	return out
}

// Close tears down the fabric: all endpoints close, pending deliveries
// are cancelled, and subsequent sends fail with errClosed.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.queue = nil
	eps := make([]*Endpoint, 0, len(n.eps))
	for _, e := range n.eps {
		eps = append(eps, e)
	}
	n.mu.Unlock()
	close(n.stopped)
	n.wg.Wait()
	for _, e := range eps {
		e.Close()
	}
	return nil
}

// linkLocked returns (creating if needed) the directed link. Caller
// holds n.mu.
func (n *Network) linkLocked(src, dst string) *link {
	k := linkKey{src, dst}
	l, ok := n.links[k]
	if !ok {
		l = &link{rng: rand.New(rand.NewSource(linkSeed(n.seed, src, dst)))}
		n.links[k] = l
	}
	return l
}

// separated reports whether any active partition puts src and dst on
// different sides. Caller holds n.mu.
func (n *Network) separated(src, dst string) bool {
	for _, set := range n.partitions {
		if set[src] != set[dst] {
			return true
		}
	}
	return false
}

// Endpoint attaches a new endpoint at addr. The address is any non-empty
// string; overlay nodes carry it in their ring entries exactly as they
// would a UDP host:port.
func (n *Network) Endpoint(addr string) (*Endpoint, error) {
	if addr == "" {
		return nil, fmt.Errorf("netem: empty endpoint address")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errClosed
	}
	if _, dup := n.eps[addr]; dup {
		return nil, fmt.Errorf("netem: address %q already attached", addr)
	}
	e := &Endpoint{
		net:    n,
		addr:   addr,
		inbox:  make(chan datagram, inboxDepth),
		closed: make(chan struct{}),
	}
	n.eps[addr] = e
	return e, nil
}

// inboxDepth bounds each endpoint's receive queue; a full inbox drops
// (and counts) rather than blocking the fabric.
const inboxDepth = 256

type datagram struct {
	payload []byte
	from    string
	// seq is the fabric-wide send sequence number of this delivery
	// (duplicates get distinct numbers). Synchronous drivers use it to
	// replay arrivals in the exact order the dispatcher scheduled them.
	seq uint64
}

// Endpoint is one attachment point on a Network, implementing Transport.
type Endpoint struct {
	net       *Network
	addr      string
	inbox     chan datagram
	closed    chan struct{}
	closeOnce sync.Once
	drops     atomic.Uint64
}

// LocalAddr returns the endpoint's attachment name.
func (e *Endpoint) LocalAddr() string { return e.addr }

// inboxDrops returns how many arrived packets were discarded because
// this endpoint's inbox was full (a stalled consumer).
func (e *Endpoint) inboxDrops() uint64 { return e.drops.Load() }

// Send offers one datagram to the fabric. The fault schedule of the
// directed link decides its fate; like UDP, an unreachable or absent
// destination is not an error.
func (e *Endpoint) Send(addr string, p []byte) error {
	n := e.net
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errClosed
	}
	select {
	case <-e.closed:
		n.mu.Unlock()
		return errClosed
	default:
	}
	l := n.linkLocked(e.addr, addr)
	if n.separated(e.addr, addr) {
		l.stats.Sent++
		l.stats.PartitionDropped++
		n.mu.Unlock()
		return nil
	}
	dst, ok := n.eps[addr]
	if !ok {
		l.stats.Sent++
		l.stats.Unrouted++
		n.mu.Unlock()
		return nil
	}
	params := n.defaults
	if l.override != nil {
		params = *l.override
	}
	// The wall clock is only the delivery base time; every fate draw
	// comes from the per-link seeded rng.
	now := time.Now()
	delays, stats := plan(l.rng, params, len(p), now, &l.busyUntil)
	l.stats.add(stats)
	if len(delays) > 0 {
		// The sender may reuse p; copy once and share across duplicates.
		buf := append([]byte(nil), p...)
		for _, delay := range delays {
			n.seq++
			heap.Push(&n.queue, delivery{
				due: now.Add(delay), seq: n.seq, dst: dst, link: l,
				d: datagram{payload: buf, from: e.addr, seq: n.seq},
			})
		}
	}
	n.mu.Unlock()
	if len(delays) > 0 {
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// Recv blocks until a datagram arrives or the endpoint closes.
func (e *Endpoint) Recv() ([]byte, string, error) {
	select {
	case d := <-e.inbox:
		return d.payload, d.from, nil
	case <-e.closed:
		// Drain anything already queued before reporting closure, so a
		// consumer never loses packets that beat the close.
		select {
		case d := <-e.inbox:
			return d.payload, d.from, nil
		default:
		}
		return nil, "", errClosed
	}
}

// TryRecv returns an already-delivered datagram without blocking, along
// with its fabric-wide send sequence number, or ok=false when the inbox
// is empty. Synchronous drivers (the proto equivalence pump) combine it
// with Network.Idle to process arrivals in deterministic global order
// instead of racing the blocking Recv.
func (e *Endpoint) TryRecv() (payload []byte, from string, seq uint64, ok bool) {
	select {
	case d := <-e.inbox:
		return d.payload, d.from, d.seq, true
	default:
		return nil, "", 0, false
	}
}

// Idle reports whether no scheduled delivery remains in flight: every
// packet the fabric accepted has either reached its destination inbox
// or been dropped. The dispatcher hands a popped delivery to the inbox
// under the same lock hold, so Idle returning true means nothing is
// mid-transfer either.
func (n *Network) Idle() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.queue.Len() == 0
}

// Close detaches the endpoint; subsequent sends to its address count as
// Unrouted, exactly like a crashed UDP host.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		e.net.mu.Lock()
		delete(e.net.eps, e.addr)
		e.net.mu.Unlock()
		close(e.closed)
	})
	return nil
}
