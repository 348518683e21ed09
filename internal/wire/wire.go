// Package wire defines ROFL's packet format and its binary encoding.
//
// A ROFL header carries no location information at all — only flat
// labels (paper §1). What it does carry, per §2.3 and §5.3, is:
//
//   - the destination and source identifiers;
//   - the AS-level source route accumulated so far, which routers compare
//     against their pointers' source routes with BGP-like import/export
//     rules to pick policy-compliant next hops;
//   - a flag recording that the packet already crossed a peering link
//     (bloom-filter peering forbids going up the hierarchy afterwards);
//   - an optional capability token authorizing the flow (§5.3).
//
// Encoding follows the gopacket convention: explicit SerializeTo /
// DecodeFromBytes with length-prefixed variable sections, no reflection,
// and decode errors that name the offending field.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rofl/internal/ident"
)

// Version is the format version emitted by this package.
const Version = 1

// Type discriminates packet kinds.
type Type uint8

// Packet kinds. Control kinds mirror the protocol messages of §3–§4.
const (
	TypeData Type = iota + 1
	TypeJoinRequest
	TypeJoinReply
	TypeTeardown
	TypeZeroID
	TypeCapRequest
	TypeCapGrant
	TypeAck
	// TypeStabilize asks a successor for its current predecessor
	// (Chord-style stabilization; used by the UDP overlay).
	TypeStabilize
	// TypeStabilizeReply answers with the predecessor pointer.
	TypeStabilizeReply
	// TypeLiveness is a BFD-style liveness probe (RFC 5880 echo of the
	// idea, not the bit layout): the payload advertises the sender's
	// desired transmit and required receive intervals plus its detect
	// multiplier, so the pair negotiates the probe rate.
	TypeLiveness
	// TypeLivenessReply answers a probe with the responder's own
	// interval advertisement.
	TypeLivenessReply
	typeMax
)

// String names the packet kind.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeJoinRequest:
		return "join-request"
	case TypeJoinReply:
		return "join-reply"
	case TypeTeardown:
		return "teardown"
	case TypeZeroID:
		return "zero-id"
	case TypeCapRequest:
		return "cap-request"
	case TypeCapGrant:
		return "cap-grant"
	case TypeAck:
		return "ack"
	case TypeStabilize:
		return "stabilize"
	case TypeStabilizeReply:
		return "stabilize-reply"
	case TypeLiveness:
		return "liveness"
	case TypeLivenessReply:
		return "liveness-reply"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Header flag bits.
const (
	// FlagPeered records that the packet traversed a peering link and may
	// no longer travel up the hierarchy (§4.2, bloom-filter peering).
	FlagPeered uint8 = 1 << iota
)

// DefaultTTL bounds forwarding hops; greedy routing is loop-free in
// steady state but transients during churn justify a TTL.
const DefaultTTL = 255

// MaxASRoute bounds the AS-level source route length.
const MaxASRoute = 64

// MaxCapability bounds the capability token length.
const MaxCapability = 512

// Packet is a decoded ROFL packet.
type Packet struct {
	Type     Type
	Flags    uint8
	TTL      uint8
	Dst, Src ident.ID
	// ReqID correlates a control request with its reply: the requester
	// picks a locally-unique value, retransmits with the same value, and
	// the responder echoes it — making retried join/stabilize exchanges
	// idempotent and letting stale replies be discarded. Zero means
	// "unsolicited" (data packets, notifications).
	ReqID      uint64
	ASRoute    []uint32 // AS-level source route traversed so far
	Capability []byte   // optional capability token
	Payload    []byte
}

// fixed layout: version(1) type(1) flags(1) ttl(1) dst(16) src(16)
// reqID(8) asRouteLen(1) capLen(2) payloadLen(2)
const fixedHeaderLen = 4 + 2*ident.Size + 8 + 1 + 2 + 2

// Errors returned by DecodeFromBytes.
var (
	ErrTruncated  = errors.New("wire: truncated packet")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: unknown packet type")
	ErrTooLong    = errors.New("wire: field exceeds limit")
	// ErrTrailing reports bytes after the declared payload: the encoding
	// is exact-length, so trailing garbage means a corrupt or hostile
	// datagram, not padding to be ignored.
	ErrTrailing = errors.New("wire: trailing bytes after packet")
)

// EncodedLen returns the exact size AppendTo will produce.
func (p *Packet) EncodedLen() int {
	return fixedHeaderLen + 4*len(p.ASRoute) + len(p.Capability) + len(p.Payload)
}

// AppendTo serializes the packet onto dst and returns the extended
// slice. It validates field limits before writing.
func (p *Packet) AppendTo(dst []byte) ([]byte, error) {
	if p.Type == 0 || p.Type >= typeMax {
		return nil, fmt.Errorf("%w: %d", ErrBadType, p.Type)
	}
	if len(p.ASRoute) > MaxASRoute {
		return nil, fmt.Errorf("%w: AS route %d > %d", ErrTooLong, len(p.ASRoute), MaxASRoute)
	}
	if len(p.Capability) > MaxCapability {
		return nil, fmt.Errorf("%w: capability %d > %d", ErrTooLong, len(p.Capability), MaxCapability)
	}
	if len(p.Payload) > 0xffff {
		return nil, fmt.Errorf("%w: payload %d > %d", ErrTooLong, len(p.Payload), 0xffff)
	}
	dst = append(dst, Version, byte(p.Type), p.Flags, p.TTL)
	dst = append(dst, p.Dst[:]...)
	dst = append(dst, p.Src[:]...)
	dst = binary.BigEndian.AppendUint64(dst, p.ReqID)
	dst = append(dst, byte(len(p.ASRoute)))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Capability)))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Payload)))
	for _, asn := range p.ASRoute {
		dst = binary.BigEndian.AppendUint32(dst, asn)
	}
	dst = append(dst, p.Capability...)
	dst = append(dst, p.Payload...)
	return dst, nil
}

// Marshal serializes into a fresh buffer. Hot senders that must not
// allocate use AppendTo with a pooled buffer instead; the fresh buffer
// here is Marshal's documented contract.
func (p *Packet) Marshal() ([]byte, error) {
	return p.AppendTo(make([]byte, 0, p.EncodedLen()))
}

// DecodeFromBytes parses b into p, copying the variable-length sections
// so p does not alias b after return. The encoding is exact-length:
// b must contain one whole packet and nothing else, or ErrTrailing is
// returned. Decoding reuses p's slice capacity, so a packet reused
// across datagrams decodes without allocating in steady state.
func (p *Packet) DecodeFromBytes(b []byte) error {
	if len(b) < fixedHeaderLen {
		return fmt.Errorf("%w: %d < %d header bytes", ErrTruncated, len(b), fixedHeaderLen)
	}
	if b[0] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, b[0])
	}
	typ := Type(b[1])
	if typ == 0 || typ >= typeMax {
		return fmt.Errorf("%w: %d", ErrBadType, b[1])
	}
	p.Type = typ
	p.Flags = b[2]
	p.TTL = b[3]
	copy(p.Dst[:], b[4:4+ident.Size])
	copy(p.Src[:], b[4+ident.Size:4+2*ident.Size])
	off := 4 + 2*ident.Size
	p.ReqID = binary.BigEndian.Uint64(b[off:])
	off += 8
	nRoute := int(b[off])
	off++
	if nRoute > MaxASRoute {
		return fmt.Errorf("%w: AS route %d > %d", ErrTooLong, nRoute, MaxASRoute)
	}
	nCap := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if nCap > MaxCapability {
		return fmt.Errorf("%w: capability %d > %d", ErrTooLong, nCap, MaxCapability)
	}
	nPay := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	need := off + 4*nRoute + nCap + nPay
	if len(b) < need {
		return fmt.Errorf("%w: have %d bytes, need %d", ErrTruncated, len(b), need)
	}
	if len(b) > need {
		return fmt.Errorf("%w: %d bytes after the %d-byte packet", ErrTrailing, len(b)-need, need)
	}
	p.ASRoute = p.ASRoute[:0]
	for i := 0; i < nRoute; i++ {
		p.ASRoute = append(p.ASRoute, binary.BigEndian.Uint32(b[off:]))
		off += 4
	}
	p.Capability = append(p.Capability[:0], b[off:off+nCap]...)
	off += nCap
	p.Payload = append(p.Payload[:0], b[off:off+nPay]...)
	return nil
}

// String renders a packet compactly for logs.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %s→%s ttl=%d route=%v", p.Type, p.Src.Short(), p.Dst.Short(), p.TTL, p.ASRoute)
}
