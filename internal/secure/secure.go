// Package secure implements ROFL's security extensions (paper §2.1 and
// §5.3): join-time authentication of self-certifying identifiers,
// provider registration with default-off reachability, cryptographic
// capabilities with lifetimes gating the data plane, and the per-router
// identifier quota that bounds Sybil footprints.
package secure

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"

	"rofl/internal/ident"
)

// Errors returned by the admission checks.
var (
	errNotRegistered   = errors.New("secure: destination not registered with its provider")
	errNotAuthorized   = errors.New("secure: source not authorized by destination filter")
	errBadCapability   = errors.New("secure: capability invalid")
	errExpired         = errors.New("secure: capability expired")
	errQuotaExceeded   = errors.New("secure: router identifier quota exceeded")
	errBadAuthProof    = errors.New("secure: join authentication failed")
	errUnknownReceiver = errors.New("secure: unknown receiver identity")
)

// Authenticator performs the join-time check of §2.1: "before its ID can
// become resident, the host must prove to the router cryptographically
// that it holds the appropriate private key."
type Authenticator struct {
	nonce uint64
}

// Challenge mints a fresh nonce for a claimed identifier.
func (a *Authenticator) Challenge(claimed ident.ID) []byte {
	a.nonce++
	buf := make([]byte, 0, len(claimed)+8)
	buf = append(buf, claimed[:]...)
	buf = binary.BigEndian.AppendUint64(buf, a.nonce)
	return buf
}

// Verify validates the host's proof over the challenge.
func (a *Authenticator) Verify(claimed ident.ID, challenge []byte, proof ident.Proof) error {
	if err := ident.VerifyProof(claimed, challenge, proof); err != nil {
		return fmt.Errorf("%w: %v", errBadAuthProof, err)
	}
	return nil
}

// Registry tracks which identifiers explicitly registered with their
// provider. "We require that hosts explicitly register with their
// providers and traffic to a host not registered with its provider be
// dropped" (§5.3). It also enforces the per-router identifier quota that
// damps Sybil attacks: "auditing mechanisms within an AS that limit the
// number of IDs hosted by a router" (§2.1).
type Registry struct {
	quota      int
	registered map[ident.ID]int // identifier -> hosting router
	perRouter  map[int]int      // router -> count
}

// NewRegistry creates a registry with a per-router identifier quota
// (0 means unlimited).
func NewRegistry(quota int) *Registry {
	return &Registry{
		quota:      quota,
		registered: make(map[ident.ID]int),
		perRouter:  make(map[int]int),
	}
}

// Register records that id is hosted at router r, enforcing the quota.
func (g *Registry) Register(id ident.ID, router int) error {
	if old, ok := g.registered[id]; ok {
		if old == router {
			return nil
		}
		g.perRouter[old]--
	}
	if g.quota > 0 && g.perRouter[router] >= g.quota {
		return fmt.Errorf("%w: router %d at %d identifiers", errQuotaExceeded, router, g.quota)
	}
	g.registered[id] = router
	g.perRouter[router]++
	return nil
}

// Deregister removes id.
func (g *Registry) Deregister(id ident.ID) {
	if r, ok := g.registered[id]; ok {
		g.perRouter[r]--
		delete(g.registered, id)
	}
}

// Registered reports whether id registered with its provider.
func (g *Registry) Registered(id ident.ID) bool {
	_, ok := g.registered[id]
	return ok
}

// Count returns the identifiers registered at a router.
func (g *Registry) Count(router int) int { return g.perRouter[router] }

// Capability is the paper's TVA-style token (§5.3): a destination grants
// a specific source the right to send to it until an expiry, signed with
// the destination's self-certifying key so any router (or the receiving
// host) can verify it against the destination identifier alone.
type Capability struct {
	Src, Dst ident.ID
	Expiry   uint64 // virtual-time milliseconds
	DstPub   ed25519.PublicKey
	Sig      []byte
}

func capabilityBody(src, dst ident.ID, expiry uint64) []byte {
	buf := make([]byte, 0, 2*ident.Size+8+4)
	buf = append(buf, []byte("cap:")...)
	buf = append(buf, src[:]...)
	buf = append(buf, dst[:]...)
	buf = binary.BigEndian.AppendUint64(buf, expiry)
	return buf
}

// Grant issues a capability from the destination's identity allowing src
// to send until expiry. "When a destination receives a route setup
// request, it grants access according to its own policies" (§5.3).
func Grant(dst *ident.Identity, src ident.ID, expiry uint64) Capability {
	body := capabilityBody(src, dst.ID(), expiry)
	return Capability{
		Src: src, Dst: dst.ID(), Expiry: expiry,
		DstPub: append(ed25519.PublicKey(nil), dst.PublicKey()...),
		Sig:    dst.Sign(body),
	}
}

// Verify checks a capability for a packet src→dst at virtual time now.
// The embedded public key must hash to the destination label (the
// self-certifying property), the signature must cover (src, dst,
// expiry), and the token must not be expired.
func (c Capability) Verify(src, dst ident.ID, now uint64) error {
	if c.Src != src || c.Dst != dst {
		return fmt.Errorf("%w: endpoints do not match", errBadCapability)
	}
	if now > c.Expiry {
		return fmt.Errorf("%w: at %d, expired %d", errExpired, now, c.Expiry)
	}
	if err := ident.VerifyProof(dst, capabilityBody(src, dst, c.Expiry), ident.Proof{Pub: c.DstPub, Sig: c.Sig}); err != nil {
		return fmt.Errorf("%w: %v", errBadCapability, err)
	}
	return nil
}

// Marshal encodes the capability for in-packet transport (wire.Packet's
// Capability field).
func (c Capability) Marshal() []byte {
	buf := make([]byte, 0, 2*ident.Size+8+ed25519.PublicKeySize+ed25519.SignatureSize)
	buf = append(buf, c.Src[:]...)
	buf = append(buf, c.Dst[:]...)
	buf = binary.BigEndian.AppendUint64(buf, c.Expiry)
	buf = append(buf, c.DstPub...)
	buf = append(buf, c.Sig...)
	return buf
}

// UnmarshalCapability decodes a capability token.
func UnmarshalCapability(b []byte) (Capability, error) {
	want := 2*ident.Size + 8 + ed25519.PublicKeySize + ed25519.SignatureSize
	if len(b) != want {
		return Capability{}, fmt.Errorf("%w: %d bytes, want %d", errBadCapability, len(b), want)
	}
	var c Capability
	copy(c.Src[:], b[:ident.Size])
	copy(c.Dst[:], b[ident.Size:2*ident.Size])
	c.Expiry = binary.BigEndian.Uint64(b[2*ident.Size:])
	off := 2*ident.Size + 8
	c.DstPub = append(ed25519.PublicKey(nil), b[off:off+ed25519.PublicKeySize]...)
	c.Sig = append([]byte(nil), b[off+ed25519.PublicKeySize:]...)
	return c, nil
}

// Equal reports deep equality (useful in tests).
func (c Capability) Equal(o Capability) bool {
	return c.Src == o.Src && c.Dst == o.Dst && c.Expiry == o.Expiry &&
		bytes.Equal(c.DstPub, o.DstPub) && bytes.Equal(c.Sig, o.Sig)
}

// Gate is the default-off admission filter of §5.3: traffic is admitted
// only to registered destinations, and only from sources the destination
// explicitly allowed — either by a standing filter entry or a valid
// capability. Filter installation itself is authenticated: "verifying
// that the request for installing a filter ... comes from the host
// owning that identifier."
type Gate struct {
	registry *Registry
	// allow[dst][src]: standing pinhole installed by dst.
	allow map[ident.ID]map[ident.ID]bool
	// identities known to the gate, for filter-installation auth.
	owners map[ident.ID]ed25519.PublicKey
}

// NewGate builds a default-off gate over a registry.
func NewGate(reg *Registry) *Gate {
	return &Gate{
		registry: reg,
		allow:    make(map[ident.ID]map[ident.ID]bool),
		owners:   make(map[ident.ID]ed25519.PublicKey),
	}
}

// RegisterOwner records the public key behind a label (learned at join
// authentication time).
func (g *Gate) RegisterOwner(id ident.ID, pub ed25519.PublicKey) {
	g.owners[id] = append(ed25519.PublicKey(nil), pub...)
}

// InstallFilter lets the owner of dst open a standing pinhole for src.
// The request must be signed by dst's key.
func (g *Gate) InstallFilter(dst *ident.Identity, src ident.ID) error {
	pub, ok := g.owners[dst.ID()]
	if !ok {
		return fmt.Errorf("%w: %s", errUnknownReceiver, dst.ID().Short())
	}
	body := capabilityBody(src, dst.ID(), 0)
	sig := dst.Sign(body)
	if !ed25519.Verify(pub, body, sig) {
		return fmt.Errorf("%w: filter request signature", errBadCapability)
	}
	if g.allow[dst.ID()] == nil {
		g.allow[dst.ID()] = make(map[ident.ID]bool)
	}
	g.allow[dst.ID()][src] = true
	return nil
}

// RemoveFilter closes a pinhole.
func (g *Gate) RemoveFilter(dst, src ident.ID) {
	delete(g.allow[dst], src)
}

// Admit decides whether a packet src→dst may be delivered at time now:
// the destination must be registered (default-off), and the source must
// hold either a standing filter entry or a valid capability.
func (g *Gate) Admit(src, dst ident.ID, cap *Capability, now uint64) error {
	if !g.registry.Registered(dst) {
		return fmt.Errorf("%w: %s", errNotRegistered, dst.Short())
	}
	if g.allow[dst][src] {
		return nil
	}
	if cap == nil {
		return fmt.Errorf("%w: %s → %s", errNotAuthorized, src.Short(), dst.Short())
	}
	return cap.Verify(src, dst, now)
}
