// BFD-style adaptive successor liveness (modeled on RFC 5880's
// asynchronous mode, not its bit layout): the core probes its current
// successor once per liveness tick and declares it dead after
// Multiplier consecutive unanswered probes — millisecond-scale failure
// detection layered under the stabilize-tick eviction, which stays as
// the slow-path fallback (and the only detector when the driver never
// ticks liveness).
//
// Negotiation follows BFD's rule: each side advertises the interval it
// wants to transmit at (MinTx) and the fastest it is willing to be
// probed at (MinRx); the effective transmit interval toward a peer is
// max(local MinTx, remote MinRx), so a loaded node slows its probers
// down by advertising a larger MinRx. The advertisement rides in every
// probe and every reply. The core only negotiates the interval
// (Interval accessor); pacing the ticks by it is the driver's job —
// time never enters the core.
package proto

import (
	"encoding/binary"
	"time"
)

// LivenessParams shapes the adaptive failure detector.
type LivenessParams struct {
	// MinTx is the interval this node wants between its own probes.
	MinTx time.Duration
	// MinRx is the fastest probing this node accepts from a peer; it is
	// advertised in probes and replies, and peers must slow to it.
	MinRx time.Duration
	// Multiplier is how many consecutive unanswered probes declare the
	// successor dead (BFD's detect multiplier; default 3).
	Multiplier int
}

// defaultLivenessParams detects a dead successor in roughly
// (Multiplier+1)×MinTx ≈ 40ms on a LAN — two orders of magnitude under
// the stabilize-timer epochs it fronts.
func defaultLivenessParams() LivenessParams {
	return LivenessParams{MinTx: 10 * time.Millisecond, MinRx: 5 * time.Millisecond, Multiplier: 3}
}

// normalize fills zero fields with defaults.
func (p LivenessParams) normalize() LivenessParams {
	d := defaultLivenessParams()
	if p.MinTx <= 0 {
		p.MinTx = d.MinTx
	}
	if p.MinRx <= 0 {
		p.MinRx = d.MinRx
	}
	if p.Multiplier <= 0 {
		p.Multiplier = d.Multiplier
	}
	return p
}

// livenessAdLen is the probe payload: minTx(4) minRx(4) multiplier(1),
// intervals in microseconds.
const livenessAdLen = 9

// encodeLivenessAd serializes an interval advertisement.
func encodeLivenessAd(p LivenessParams) []byte {
	buf := make([]byte, livenessAdLen)
	binary.BigEndian.PutUint32(buf[0:], uint32(p.MinTx/time.Microsecond))
	binary.BigEndian.PutUint32(buf[4:], uint32(p.MinRx/time.Microsecond))
	buf[8] = uint8(min(p.Multiplier, 255))
	return buf
}

// decodeLivenessAd parses an advertisement; ok is false on a short or
// garbled payload (the probe still proves liveness either way).
func decodeLivenessAd(b []byte) (LivenessParams, bool) {
	if len(b) < livenessAdLen {
		return LivenessParams{}, false
	}
	return LivenessParams{
		MinTx:      time.Duration(binary.BigEndian.Uint32(b[0:])) * time.Microsecond,
		MinRx:      time.Duration(binary.BigEndian.Uint32(b[4:])) * time.Microsecond,
		Multiplier: int(b[8]),
	}, true
}
