// Package ident implements ROFL's flat-label namespace: 128-bit
// identifiers arranged on a circle, the clockwise-distance metric that
// greedy routing minimizes, and self-certifying identities whose label is
// a hash of an ed25519 public key (paper §2.1).
//
// The package is the single source of truth for the greedy-routing
// decision "closest to the destination without overshooting it"
// (Algorithm 2 in the paper); every routing layer — intradomain virtual
// rings, interdomain Canon merging, the live protocol core, anycast and
// multicast delivery — selects its next hop through Progress, Scan and
// Closest (select.go), so the rule is implemented exactly once.
package ident

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
)

// Size is the length of an identifier in bytes. The paper uses 128-bit
// labels throughout its evaluation (§6.1: "Each host is assigned a
// 128-bit ID").
const Size = 16

// idBits is the identifier length in bits.
const idBits = Size * 8

// ID is a flat label: an opaque 128-bit value interpreted as a point on a
// circular namespace of size 2^128. IDs have no semantics (no location,
// no hierarchy); all routing operates on clockwise namespace distance.
type ID [Size]byte

// zero is the all-zero identifier, the origin of the circular namespace.
// Partition repair (paper §3.2) distributes the live ID closest to zero.
var zero ID

// maxID is the all-ones identifier, the immediate predecessor of zero on
// the circle.
var maxID = ID{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// FromBytes derives an ID by hashing arbitrary bytes with SHA-256 and
// truncating to 128 bits. This is how self-certifying labels are minted
// from public keys, and how deterministic test fixtures are built.
func FromBytes(b []byte) ID {
	sum := sha256.Sum256(b)
	var id ID
	copy(id[:], sum[:Size])
	return id
}

// FromString derives an ID from a string via FromBytes.
func FromString(s string) ID { return FromBytes([]byte(s)) }

// FromUint64 places v in the low 64 bits of an otherwise-zero ID. It is
// intended for tests and examples where human-readable ring positions
// matter more than uniform spread.
func FromUint64(v uint64) ID {
	var id ID
	binary.BigEndian.PutUint64(id[8:], v)
	return id
}

// Low64 returns the low 64 bits of the identifier.
func (id ID) Low64() uint64 { return binary.BigEndian.Uint64(id[8:]) }

// Random draws an ID uniformly at random from the namespace using rng.
func Random(rng *rand.Rand) ID {
	var id ID
	// rand.Rand has no error path; Read always fills the slice.
	rng.Read(id[:])
	return id
}

// Parse decodes a 32-hex-digit string into an ID.
func Parse(s string) (ID, error) {
	var id ID
	if len(s) != 2*Size {
		return id, fmt.Errorf("ident: want %d hex digits, got %d", 2*Size, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("ident: %w", err)
	}
	copy(id[:], b)
	return id, nil
}

// String renders the full identifier as lowercase hex.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Short renders the leading 4 bytes, enough to tell ring neighbors apart
// in logs and test failures.
func (id ID) Short() string { return hex.EncodeToString(id[:4]) + "…" }

// u128 is an identifier, or the distance between two, as machine words.
// All ordering and arithmetic below runs on this form; ID stays the
// stored and exported array, so identifiers remain map keys, compare
// with == and go on the wire byte for byte.
type u128 struct{ hi, lo uint64 }

func (id ID) words() u128 {
	return u128{binary.BigEndian.Uint64(id[:8]), binary.BigEndian.Uint64(id[8:])}
}

func (a u128) id() (id ID) {
	binary.BigEndian.PutUint64(id[:8], a.hi)
	binary.BigEndian.PutUint64(id[8:], a.lo)
	return id
}

func (a u128) less(b u128) bool { return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo) }

// sub returns a - b mod 2^128.
func (a u128) sub(b u128) u128 {
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, borrow)
	return u128{hi, lo}
}

// span returns the clockwise distance from→to, (to - from) mod 2^128.
func span(from, to ID) u128 { return to.words().sub(from.words()) }

// Cmp compares two identifiers as 128-bit big-endian integers, returning
// -1, 0, or +1. Linear order is only meaningful for tie-breaking and
// sorted storage; routing must use Distance / Between, which respect the
// circular topology.
func (id ID) Cmp(other ID) int {
	a, b := id.words(), other.words()
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// Less reports id < other in linear order.
func (id ID) Less(other ID) bool { return id.words().less(other.words()) }

// Add returns id + other mod 2^128.
func (id ID) Add(other ID) ID {
	a, b := id.words(), other.words()
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return u128{hi, lo}.id()
}

// Sub returns id - other mod 2^128.
func (id ID) Sub(other ID) ID { return span(other, id).id() }

// Next returns the identifier immediately clockwise of id (id+1).
func (id ID) Next() ID { return id.Add(one) }

// Prev returns the identifier immediately counter-clockwise of id (id-1).
func (id ID) Prev() ID { return id.Sub(one) }

var one = func() ID {
	var id ID
	id[Size-1] = 1
	return id
}()

// Distance returns the clockwise distance from id to other: the number of
// namespace positions a packet at id must still cover to reach other,
// i.e. (other - id) mod 2^128. Distance(x, x) == 0.
func (id ID) Distance(other ID) ID { return span(id, other).id() }

// Between reports whether x lies in the half-open clockwise interval
// (a, b]. This is the Chord successor convention: the successor of k is
// the first live ID s with k ∈ (pred(s), s], equivalently
// Between(k, pred, s). When a == b the interval is the entire circle
// minus a's own slot wrapped onto itself, so any x != a qualifies —
// a ring with one member is its own successor for every other key.
func Between(x, a, b ID) bool {
	if a == b {
		return x != a
	}
	dx, db := span(a, x), span(a, b)
	return dx != (u128{}) && !db.less(dx)
}

// BetweenOpen reports whether x lies strictly inside the clockwise
// interval (a, b).
func BetweenOpen(x, a, b ID) bool {
	return Between(x, a, b) && x != b
}

// Progress reports whether forwarding from cur to candidate makes greedy
// progress toward dst without overshooting: candidate ∈ (cur, dst]. This
// is the legality test of Algorithm 2 — a router may only hand a packet
// to a pointer that is closer to the destination in clockwise distance
// and not past it, which is what guarantees loop freedom and eventual
// delivery along successor pointers in steady state.
func Progress(cur, dst, candidate ID) bool {
	if cur == dst {
		return false // already at the destination's slot
	}
	return Between(candidate, cur, dst)
}

// CommonPrefixLen returns the number of leading bits shared by a and b,
// in [0, idBits]. Prefix finger tables (paper §4.1) key their rows on this
// value.
func CommonPrefixLen(a, b ID) int {
	x, y := a.words(), b.words()
	if x.hi != y.hi {
		return bits.LeadingZeros64(x.hi ^ y.hi)
	}
	return 64 + bits.LeadingZeros64(x.lo^y.lo)
}

// DigitBits is the width of one finger-table digit. With 4-bit digits an
// identifier has 32 digit positions, matching the Bamboo/Pastry layout
// the paper adopts for proximity fingers.
const DigitBits = 4

// Digits is the number of digit positions per identifier.
const Digits = idBits / DigitBits

// Digit returns the i-th most significant DigitBits-wide digit of id,
// with i in [0, Digits).
func (id ID) Digit(i int) int {
	if i < 0 || i >= Digits {
		panic(fmt.Sprintf("ident: digit index %d out of range", i))
	}
	b := id[i/2]
	if i%2 == 0 {
		return int(b >> 4)
	}
	return int(b & 0x0f)
}

// --- Group identifiers (paper §5.1–5.2) ---------------------------------
//
// Anycast and multicast reuse the flat namespace by giving every member
// of a group G an ID of the form (G, x): a shared groupPrefixLen-bit
// prefix derived from the group name and a per-member suffix x. Routers
// need no special state: routing toward any (G, y) greedily lands on some
// member of G, because all members are contiguous on the circle.

// groupPrefixLen is the number of bits identifying the group; the
// remaining idBits - groupPrefixLen bits are the member suffix.
const groupPrefixLen = 96

// Group is the shared prefix of an anycast/multicast group.
type Group [groupPrefixLen / 8]byte

// GroupFromString derives a Group by hashing a name.
func GroupFromString(name string) Group {
	sum := sha256.Sum256([]byte(name))
	var g Group
	copy(g[:], sum[:len(g)])
	return g
}

// Member builds the identifier (G, x) for suffix x.
func (g Group) Member(x uint32) ID {
	var id ID
	copy(id[:], g[:])
	binary.BigEndian.PutUint32(id[len(g):], x)
	return id
}

// RandomMember builds (G, x) with a uniformly random suffix; senders use
// this to anycast to "any member of G" (§5.2).
func (g Group) RandomMember(rng *rand.Rand) ID {
	return g.Member(rng.Uint32())
}

// GroupOf extracts the group prefix of an identifier.
func GroupOf(id ID) Group {
	var g Group
	copy(g[:], id[:len(g)])
	return g
}

// SameGroup reports whether two identifiers share a group prefix.
func SameGroup(a, b ID) bool { return GroupOf(a) == GroupOf(b) }

// Suffix returns the member suffix of an identifier.
func Suffix(id ID) uint32 {
	return binary.BigEndian.Uint32(id[groupPrefixLen/8:])
}

// errBadID reports a malformed identifier encoding.
var errBadID = errors.New("ident: malformed identifier")

// MarshalText implements encoding.TextMarshaler (lowercase hex).
func (id ID) MarshalText() ([]byte, error) {
	return []byte(id.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *ID) UnmarshalText(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler (raw 16 bytes).
func (id ID) MarshalBinary() ([]byte, error) {
	out := make([]byte, Size)
	copy(out, id[:])
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (id *ID) UnmarshalBinary(b []byte) error {
	if len(b) != Size {
		return fmt.Errorf("%w: %d bytes, want %d", errBadID, len(b), Size)
	}
	copy(id[:], b)
	return nil
}
