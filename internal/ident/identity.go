package ident

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"io"
)

// Identity is a self-certifying endpoint identity (paper §2.1): the
// identifier is the truncated SHA-256 hash of an ed25519 public key, so
// possession of the private key proves ownership of the label. Hosting
// routers authenticate a joining host by challenging it to sign a nonce
// (join_internal line 1, "authenticate(id)").
type Identity struct {
	id   ID
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewIdentity mints a fresh identity from the given entropy source.
func NewIdentity(rng io.Reader) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("ident: generating key: %w", err)
	}
	return &Identity{id: idOfKey(pub), pub: pub, priv: priv}, nil
}

func idOfKey(pub ed25519.PublicKey) ID {
	sum := sha256.Sum256(pub)
	var id ID
	copy(id[:], sum[:Size])
	return id
}

// ID returns the flat label bound to this identity.
func (i *Identity) ID() ID { return i.id }

// PublicKey returns the public key the label certifies.
func (i *Identity) PublicKey() ed25519.PublicKey { return i.pub }

// Sign signs msg with the identity's private key.
func (i *Identity) Sign(msg []byte) []byte {
	return ed25519.Sign(i.priv, msg)
}

// Proof is the response to an authentication challenge: the public key
// whose hash is the claimed ID, plus a signature over the challenge
// nonce.
type Proof struct {
	Pub ed25519.PublicKey
	Sig []byte
}

// Prove answers a challenge nonce, demonstrating ownership of the label.
func (i *Identity) Prove(nonce []byte) Proof {
	return Proof{Pub: append(ed25519.PublicKey(nil), i.pub...), Sig: i.Sign(nonce)}
}

// VerifyProof checks that proof demonstrates ownership of claimed for the
// given nonce: the public key must hash to the claimed label and the
// signature must verify. This is what prevents ID spoofing at join time
// — "there can be no spoofing of IDs unless the router misbehaves"
// (§2.1), and end-to-end the same check catches a misbehaving router.
func VerifyProof(claimed ID, nonce []byte, proof Proof) error {
	if len(proof.Pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad public key length %d", errBadID, len(proof.Pub))
	}
	if idOfKey(proof.Pub) != claimed {
		return fmt.Errorf("%w: public key does not hash to claimed label %s", errBadID, claimed.Short())
	}
	if !ed25519.Verify(proof.Pub, nonce, proof.Sig) {
		return fmt.Errorf("%w: signature does not verify", errBadID)
	}
	return nil
}
