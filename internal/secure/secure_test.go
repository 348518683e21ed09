package secure

import (
	"errors"
	"math/rand"
	"testing"

	"rofl/internal/ident"
)

type testRand struct{ r *rand.Rand }

func (t testRand) Read(p []byte) (int, error) { return t.r.Read(p) }

func newIdentity(t *testing.T, seed int64) *ident.Identity {
	t.Helper()
	id, err := ident.NewIdentity(testRand{rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestAuthenticatorAcceptsOwner(t *testing.T) {
	var a Authenticator
	host := newIdentity(t, 1)
	ch := a.Challenge(host.ID())
	if err := a.Verify(host.ID(), ch, host.Prove(ch)); err != nil {
		t.Fatalf("honest join rejected: %v", err)
	}
}

func TestAuthenticatorRejectsSpoof(t *testing.T) {
	var a Authenticator
	honest := newIdentity(t, 1)
	attacker := newIdentity(t, 2)
	ch := a.Challenge(honest.ID())
	if err := a.Verify(honest.ID(), ch, attacker.Prove(ch)); !errors.Is(err, errBadAuthProof) {
		t.Fatalf("spoof accepted: %v", err)
	}
}

func TestChallengesAreUnique(t *testing.T) {
	var a Authenticator
	host := newIdentity(t, 1)
	c1 := a.Challenge(host.ID())
	c2 := a.Challenge(host.ID())
	if string(c1) == string(c2) {
		t.Fatal("challenges must differ (replay protection)")
	}
}

func TestRegistryQuota(t *testing.T) {
	reg := NewRegistry(2)
	a, b, c := ident.FromString("a"), ident.FromString("b"), ident.FromString("c")
	if err := reg.Register(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(b, 1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(c, 1); !errors.Is(err, errQuotaExceeded) {
		t.Fatalf("quota not enforced: %v", err)
	}
	if err := reg.Register(c, 2); err != nil {
		t.Fatal(err)
	}
	if reg.Count(1) != 2 || reg.Count(2) != 1 {
		t.Fatalf("counts = %d %d", reg.Count(1), reg.Count(2))
	}
	// Re-register at a new router frees the old slot.
	if err := reg.Register(a, 2); err != nil {
		t.Fatal(err)
	}
	if reg.Count(1) != 1 {
		t.Fatalf("count = %d", reg.Count(1))
	}
	reg.Deregister(a)
	if reg.Registered(a) || reg.Count(2) != 1 {
		t.Fatal("deregister failed")
	}
	// Idempotent re-register at the same router.
	if err := reg.Register(b, 1); err != nil {
		t.Fatal(err)
	}
	if reg.Count(1) != 1 {
		t.Fatal("same-router re-register must not double count")
	}
}

func TestCapabilityLifecycle(t *testing.T) {
	dst := newIdentity(t, 3)
	src := ident.FromString("sender")
	cap := Grant(dst, src, 1000)
	if err := cap.Verify(src, dst.ID(), 500); err != nil {
		t.Fatalf("valid capability rejected: %v", err)
	}
	if err := cap.Verify(src, dst.ID(), 1001); !errors.Is(err, errExpired) {
		t.Fatalf("expired capability accepted: %v", err)
	}
	other := ident.FromString("other")
	if err := cap.Verify(other, dst.ID(), 500); !errors.Is(err, errBadCapability) {
		t.Fatalf("wrong source accepted: %v", err)
	}
	if err := cap.Verify(src, other, 500); !errors.Is(err, errBadCapability) {
		t.Fatalf("wrong destination accepted: %v", err)
	}
}

func TestCapabilityForgery(t *testing.T) {
	dst := newIdentity(t, 3)
	attacker := newIdentity(t, 4)
	src := ident.FromString("sender")
	// Attacker signs a capability claiming dst's label.
	forged := Grant(attacker, src, 1000)
	forged.Dst = dst.ID()
	if err := forged.Verify(src, dst.ID(), 500); !errors.Is(err, errBadCapability) {
		t.Fatalf("forged capability accepted: %v", err)
	}
	// Tampered expiry breaks the signature.
	cap := Grant(dst, src, 1000)
	cap.Expiry = 1 << 60
	if err := cap.Verify(src, dst.ID(), 500); !errors.Is(err, errBadCapability) {
		t.Fatalf("tampered expiry accepted: %v", err)
	}
}

func TestCapabilityMarshalRoundTrip(t *testing.T) {
	dst := newIdentity(t, 5)
	cap := Grant(dst, ident.FromString("s"), 42)
	got, err := UnmarshalCapability(cap.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cap) {
		t.Fatal("round trip changed the capability")
	}
	if err := got.Verify(cap.Src, cap.Dst, 10); err != nil {
		t.Fatalf("unmarshaled capability invalid: %v", err)
	}
	if _, err := UnmarshalCapability(cap.Marshal()[:10]); !errors.Is(err, errBadCapability) {
		t.Fatalf("short token accepted: %v", err)
	}
}

func TestGateDefaultOff(t *testing.T) {
	reg := NewRegistry(0)
	gate := NewGate(reg)
	dst := newIdentity(t, 6)
	src := ident.FromString("src")

	// Unregistered destination: dropped even with a capability.
	cap := Grant(dst, src, 1000)
	if err := gate.Admit(src, dst.ID(), &cap, 10); !errors.Is(err, errNotRegistered) {
		t.Fatalf("unregistered dst reachable: %v", err)
	}

	if err := reg.Register(dst.ID(), 1); err != nil {
		t.Fatal(err)
	}
	// Registered but no authorization: default off.
	if err := gate.Admit(src, dst.ID(), nil, 10); !errors.Is(err, errNotAuthorized) {
		t.Fatalf("default-off not enforced: %v", err)
	}
	// Capability admits.
	if err := gate.Admit(src, dst.ID(), &cap, 10); err != nil {
		t.Fatalf("capability not honored: %v", err)
	}
	// Expired capability drops again.
	if err := gate.Admit(src, dst.ID(), &cap, 2000); !errors.Is(err, errExpired) {
		t.Fatalf("expired capability admitted: %v", err)
	}
}

func TestGateStandingFilter(t *testing.T) {
	reg := NewRegistry(0)
	gate := NewGate(reg)
	dst := newIdentity(t, 7)
	src := ident.FromString("friend")
	if err := reg.Register(dst.ID(), 1); err != nil {
		t.Fatal(err)
	}
	// Filter installation requires a known owner.
	if err := gate.InstallFilter(dst, src); !errors.Is(err, errUnknownReceiver) {
		t.Fatalf("unknown owner accepted: %v", err)
	}
	gate.RegisterOwner(dst.ID(), dst.PublicKey())
	if err := gate.InstallFilter(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := gate.Admit(src, dst.ID(), nil, 10); err != nil {
		t.Fatalf("standing filter not honored: %v", err)
	}
	gate.RemoveFilter(dst.ID(), src)
	if err := gate.Admit(src, dst.ID(), nil, 10); !errors.Is(err, errNotAuthorized) {
		t.Fatalf("removed filter still admits: %v", err)
	}
}
