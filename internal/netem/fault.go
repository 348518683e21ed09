package netem

import (
	"math/rand"
	"sync"
	"time"
)

// Fault wraps any Transport and applies a LinkParams fault schedule to
// every outbound packet, with decisions drawn from a seeded RNG. It is
// how a live UDP node (cmd/roflnode -loss/-latency/-seed) demos the
// protocol's loss tolerance reproducibly: the same seed yields the same
// drop/duplicate/delay sequence for the same sequence of sends.
//
// Unlike Network, Fault models a single shared egress (one RNG, one
// bandwidth clock) rather than per-destination links — the view a host
// has of its own uplink.
type Fault struct {
	inner Transport

	mu        sync.Mutex
	rng       *rand.Rand
	params    LinkParams
	stats     LinkStats
	ins       *Instruments
	busyUntil time.Time
	timers    map[*time.Timer]struct{}
	closed    bool
}

// WrapFault applies params to inner's outbound traffic using a RNG
// seeded with seed.
func WrapFault(inner Transport, params LinkParams, seed int64) *Fault {
	return &Fault{
		inner:  inner,
		rng:    rand.New(rand.NewSource(seed)),
		params: params,
		timers: make(map[*time.Timer]struct{}),
	}
}

// SetInstruments mirrors subsequent per-send fate counts into ins (nil
// detaches). The counters accumulate the same deltas as Stats.
func (f *Fault) SetInstruments(ins *Instruments) {
	f.mu.Lock()
	f.ins = ins
	f.mu.Unlock()
}

// SetParams replaces the fault schedule for subsequent sends.
func (f *Fault) SetParams(p LinkParams) {
	f.mu.Lock()
	f.params = p
	f.mu.Unlock()
}

// Stats returns a snapshot of the outbound counters.
func (f *Fault) Stats() LinkStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Send applies the fault schedule, then forwards surviving copies to the
// inner transport (after their scheduled delay, off the caller's
// goroutine when delayed).
func (f *Fault) Send(addr string, p []byte) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errClosed
	}
	// The wall clock is only the delivery base time; every fate draw
	// comes from f.rng.
	delays, stats := plan(f.rng, f.params, len(p), time.Now(), &f.busyUntil)
	stats.Delivered = uint64(len(delays)) // no inbox on the far side to drop at
	f.stats.add(stats)
	f.ins.add(stats)
	var buf []byte
	if len(delays) > 0 {
		buf = append([]byte(nil), p...)
	}
	for _, delay := range delays {
		if delay <= 0 {
			f.mu.Unlock()
			err := f.inner.Send(addr, buf)
			f.mu.Lock()
			if err != nil {
				f.mu.Unlock()
				return err
			}
			continue
		}
		var t *time.Timer
		t = time.AfterFunc(delay, func() {
			f.mu.Lock()
			delete(f.timers, t)
			closed := f.closed
			f.mu.Unlock()
			if !closed {
				_ = f.inner.Send(addr, buf)
			}
		})
		f.timers[t] = struct{}{}
	}
	f.mu.Unlock()
	return nil
}

// Recv passes through to the inner transport.
func (f *Fault) Recv() ([]byte, string, error) { return f.inner.Recv() }

// RecvInto implements BufferedTransport when the inner transport does,
// falling back to Recv plus a copy otherwise (faults apply to outbound
// traffic only, so receives pass through either way).
func (f *Fault) RecvInto(buf []byte) (int, string, error) {
	if bt, ok := f.inner.(BufferedTransport); ok {
		return bt.RecvInto(buf)
	}
	p, from, err := f.inner.Recv()
	if err != nil {
		return 0, "", err
	}
	return copy(buf, p), from, nil
}

// LocalAddr passes through to the inner transport.
func (f *Fault) LocalAddr() string { return f.inner.LocalAddr() }

// Close cancels pending delayed sends and closes the inner transport.
func (f *Fault) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	for t := range f.timers {
		t.Stop()
	}
	f.timers = make(map[*time.Timer]struct{})
	f.mu.Unlock()
	return f.inner.Close()
}
