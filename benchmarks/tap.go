package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"rofl/internal/netem"
	"rofl/internal/wire"
)

// Offsets into an encoded data packet that carries no AS route and no
// capability, which is all the benchmark sends: version, type, flags and
// TTL, two 16-byte labels, the request id, three length fields, then the
// payload, whose first eight bytes are the benchmark's sequence number.
const (
	dgTypeOff    = 1
	dgTTLOff     = 3
	dgPayloadOff = 4 + 16 + 16 + 8 + 1 + 2 + 2
	dgSeqEnd     = dgPayloadOff + 8
)

// traceEvery is the packet sampling stride of a traced run: spans are
// kept for sequence numbers divisible by it.
const traceEvery = 8

// tapCap bounds the hop records one node keeps (48 B each).
const tapCap = 1 << 14

// dgKey identifies one transmission of one packet: sequence number and
// the TTL it travels with. Zero means "not a sampled data packet".
type dgKey uint64

func keyOf(p []byte) dgKey {
	if len(p) < dgSeqEnd || wire.Type(p[dgTypeOff]) != wire.TypeData {
		return 0
	}
	seq := binary.BigEndian.Uint64(p[dgPayloadOff:dgSeqEnd])
	if seq == 0 || seq%traceEvery != 0 {
		return 0
	}
	return dgKey(seq<<8 | uint64(p[dgTTLOff]))
}

func (k dgKey) seq() uint64 { return uint64(k >> 8) }
func (k dgKey) ttl() uint8  { return uint8(k) }

// hopRec is what the tap sees of one sampled data packet at one node:
// when RecvInto handed it to the read loop, when the read loop came back
// for the next datagram, and the send nested in between (zero when the
// packet was delivered locally and nothing was sent).
type hopRec struct {
	Key                dgKey
	RecvRet, NextRecv  int64
	SendStart, SendEnd int64
}

// sendRec is one origin transmission: Node.Send called by the generator
// reaches the socket outside any hop.
type sendRec struct {
	Key        dgKey
	Start, End int64
}

// tap wraps a node's transport in a traced run. It passes every call
// through unchanged and records, from the datagram bytes alone, the spans
// the per-layer ledger is built from. It implements BufferedTransport,
// without which the overlay's read loop would leave its buffered path.
type tap struct {
	inner interface {
		netem.Transport
		netem.BufferedTransport
	}
	base time.Time
	// on gates span recording, so that set-up and warm-up traffic leave
	// the bounded record slices to the measured phase.
	on atomic.Bool

	// Owned by the node's read loop, which is the only caller of
	// RecvInto and of the sends nested in a hop.
	hops []hopRec
	open bool // hops[len-1] still awaits its NextRecv

	// cur mirrors the open hop's key so that a Send arriving from another
	// goroutine (the generator, a timer) can tell it is not part of it.
	cur atomic.Uint64

	// Owned by the generator goroutine.
	origins []sendRec

	idleNs atomic.Int64 // time blocked inside RecvInto

	// samples keeps a few raw data datagrams for the wire replay.
	samples [][]byte
}

var (
	_ netem.Transport         = (*tap)(nil)
	_ netem.BufferedTransport = (*tap)(nil)
)

func newTap(inner *netem.UDP, base time.Time) *tap {
	return &tap{inner: inner, base: base, hops: make([]hopRec, 0, tapCap), origins: make([]sendRec, 0, tapCap)}
}

func (t *tap) now() int64 { return int64(time.Since(t.base)) }

// key is keyOf while recording is on, and zero otherwise.
func (t *tap) key(p []byte) dgKey {
	if !t.on.Load() {
		return 0
	}
	return keyOf(p)
}

func (t *tap) LocalAddr() string { return t.inner.LocalAddr() }
func (t *tap) Close() error      { return t.inner.Close() }

func (t *tap) Recv() ([]byte, string, error) { return t.inner.Recv() }

func (t *tap) RecvInto(buf []byte) (int, string, error) {
	entry := t.now()
	if t.open {
		t.hops[len(t.hops)-1].NextRecv = entry
		t.open = false
		t.cur.Store(0)
	}
	n, from, err := t.inner.RecvInto(buf)
	ret := t.now()
	t.idleNs.Add(ret - entry)
	if err != nil {
		return n, from, err
	}
	if k := t.key(buf[:n]); k != 0 && len(t.hops) < cap(t.hops) {
		t.hops = append(t.hops, hopRec{Key: k, RecvRet: ret})
		t.open = true
		t.cur.Store(uint64(k))
		if len(t.samples) < 64 {
			t.samples = append(t.samples, append([]byte(nil), buf[:n]...))
		}
	}
	return n, from, err
}

func (t *tap) Send(addr string, p []byte) error {
	k := t.key(p)
	if k == 0 {
		return t.inner.Send(addr, p)
	}
	start := t.now()
	err := t.inner.Send(addr, p)
	end := t.now()
	switch {
	case uint64(k)+1 == t.cur.Load():
		// A forward travels with the received TTL minus one, and only the
		// read loop can be sending the packet it is in the middle of.
		h := &t.hops[len(t.hops)-1]
		h.SendStart, h.SendEnd = start, end
	case k.ttl() == wire.DefaultTTL && len(t.origins) < cap(t.origins):
		t.origins = append(t.origins, sendRec{Key: k, Start: start, End: end})
	}
	return err
}
