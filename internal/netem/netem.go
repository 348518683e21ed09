// Package netem abstracts the overlay's network and makes it hostile on
// demand. It defines Transport — the minimal datagram surface the
// overlay speaks (send/receive byte slices by address string) — with
// three implementations:
//
//   - UDP: a thin wrapper over a real *net.UDPConn, used by live
//     deployments (cmd/roflnode);
//   - Network/Endpoint: an in-process emulated fabric that injects
//     faults from a seeded RNG — loss, duplication, reordering, latency
//     with jitter, per-link bandwidth, and named partitions that can be
//     split and healed mid-run — with per-link counters for assertions;
//   - Fault: a wrapper applying the same fault model to the outbound
//     side of any Transport, so a real UDP node can demo packet loss
//     reproducibly (roflnode -loss/-latency/-seed).
//
// Fault decisions are drawn from per-link RNGs seeded from the network
// seed and the link's endpoint names, so a given seed plus a given
// per-link send order yields exactly the same drop/duplicate/reorder
// sequence on every run — the property the chaos tests assert against.
// The paper's protocol claims (ring maintenance under churn §3.2,
// partition repair §3.3) are exercised by driving internal/overlay
// through a Network instead of the kernel's loopback.
package netem

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"time"
)

// errClosed reports an operation on a closed transport.
var errClosed = errors.New("netem: transport closed")

// Transport is the datagram surface an overlay node binds to: fire and
// forget sends, blocking receives. Implementations must make Send and
// Recv safe for concurrent use and must unblock Recv with an error when
// closed.
type Transport interface {
	// Send transmits one datagram to addr. Like UDP, delivery is not
	// guaranteed and no error is reported for an unreachable peer.
	Send(addr string, p []byte) error
	// Recv blocks until a datagram arrives and returns its payload and
	// the sender's address. The returned slice is owned by the caller.
	Recv() (p []byte, from string, err error)
	// LocalAddr returns the address peers should send to.
	LocalAddr() string
	// Close releases the transport and unblocks pending Recv calls.
	Close() error
}

// BufferedTransport is implemented by transports that can receive a
// datagram directly into a caller-provided buffer, sparing the
// per-packet allocation Recv's owned-slice contract forces. Receive
// loops should type-assert for it and fall back to Recv. buf must be
// large enough for the transport's maximum datagram (64 KiB covers
// UDP); like Recv, RecvInto blocks and returns an error once closed.
type BufferedTransport interface {
	RecvInto(buf []byte) (n int, from string, err error)
}

// LinkParams describes the fault schedule of one directed link (or, for
// Fault, of every outbound packet). The zero value is a perfect link.
type LinkParams struct {
	// Loss is the probability in [0,1] that a packet vanishes.
	Loss float64
	// Duplicate is the probability that a packet arrives twice.
	Duplicate float64
	// Reorder is the probability that a packet is held an extra
	// ReorderDelay, letting packets sent after it overtake it.
	Reorder float64
	// ReorderDelay is the extra hold applied to reordered packets; when
	// zero, 4×Latency is used (minimum 2ms).
	ReorderDelay time.Duration
	// Latency is the base one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per packet.
	Jitter time.Duration
	// Bandwidth caps the link in bytes/second (serialization delay,
	// FIFO per link); 0 means unlimited.
	Bandwidth int
}

// reorderDelay resolves the effective extra hold for reordered packets.
func (p LinkParams) reorderDelay() time.Duration {
	if p.ReorderDelay > 0 {
		return p.ReorderDelay
	}
	if d := 4 * p.Latency; d > 2*time.Millisecond {
		return d
	}
	return 2 * time.Millisecond
}

// LinkStats counts what happened to packets offered to a link. All
// counters are cumulative since the link first carried traffic.
type LinkStats struct {
	Sent             uint64 // packets offered by the sender
	Delivered        uint64 // packets placed in the receiver's inbox
	Lost             uint64 // dropped by the loss schedule
	Duplicated       uint64 // extra copies injected
	Reordered        uint64 // packets held back past later ones
	PartitionDropped uint64 // dropped because a named partition separates the ends
	Unrouted         uint64 // dropped because no endpoint owns the address
	InboxDropped     uint64 // dropped because the receiver's inbox was full
}

// add accumulates o into s.
func (s *LinkStats) add(o LinkStats) {
	s.Sent += o.Sent
	s.Delivered += o.Delivered
	s.Lost += o.Lost
	s.Duplicated += o.Duplicated
	s.Reordered += o.Reordered
	s.PartitionDropped += o.PartitionDropped
	s.Unrouted += o.Unrouted
	s.InboxDropped += o.InboxDropped
}

// linkSeed derives a per-link RNG seed from the network seed and the
// directed link's endpoint names, so each link has an independent but
// reproducible fault sequence.
func linkSeed(seed int64, src, dst string) int64 {
	h := fnv.New64a()
	h.Write([]byte(src))
	h.Write([]byte{0})
	h.Write([]byte(dst))
	return seed ^ int64(h.Sum64())
}

// plan draws one packet's fate from the link RNG: whether it is lost,
// and otherwise the arrival delay of each copy (one, or two when
// duplicated). busyUntil carries the link's bandwidth clock across
// calls. The draw order is fixed (loss, duplicate, then per-copy jitter
// and reorder) so the decision sequence depends only on the RNG state
// and the sizes sent, never on which parameters happen to be zero.
func plan(rng *rand.Rand, p LinkParams, size int, now time.Time, busyUntil *time.Time) (delays []time.Duration, stats LinkStats) {
	stats.Sent = 1
	if rng.Float64() < p.Loss {
		stats.Lost = 1
		return nil, stats
	}
	copies := 1
	if rng.Float64() < p.Duplicate {
		copies = 2
		stats.Duplicated = 1
	}
	// Serialization: the link transmits FIFO at Bandwidth bytes/sec.
	depart := now
	if p.Bandwidth > 0 {
		clock := now
		if busyUntil != nil && busyUntil.After(clock) {
			clock = *busyUntil
		}
		tx := time.Duration(float64(size) / float64(p.Bandwidth) * float64(time.Second))
		depart = clock.Add(tx)
		if busyUntil != nil {
			*busyUntil = depart
		}
	}
	base := depart.Sub(now) + p.Latency
	for i := 0; i < copies; i++ {
		d := base
		if p.Jitter > 0 {
			d += time.Duration(rng.Float64() * float64(p.Jitter))
		} else {
			rng.Float64() // keep the draw sequence stable
		}
		if rng.Float64() < p.Reorder {
			d += p.reorderDelay()
			stats.Reordered++
		}
		delays = append(delays, d)
	}
	// Delivered is counted when a copy actually lands in an inbox, not
	// here: a scheduled copy can still be dropped on a full inbox.
	return delays, stats
}
