package proto

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"rofl/internal/ident"
)

// Peer pairs a flat label with the transport address hosting it — the
// one piece of location the protocol ever handles, and only as an
// opaque string the driver knows how to dial.
type Peer struct {
	ID   ident.ID
	Addr string
}

// EncodePeers serializes pointer entries into a packet payload:
// count(2) then per entry id(16) addrLen(2) addr. It is the payload
// codec of every ring-maintenance message (join, stabilize, notify).
func EncodePeers(es []Peer) []byte {
	buf := binary.BigEndian.AppendUint16(nil, uint16(len(es)))
	for _, e := range es {
		buf = append(buf, e.ID[:]...)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Addr)))
		buf = append(buf, e.Addr...)
	}
	return buf
}

// decodePeers parses an EncodePeers payload.
func decodePeers(b []byte) ([]Peer, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("proto: short entry list")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	out := make([]Peer, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < ident.Size+2 {
			return nil, fmt.Errorf("proto: truncated entry %d", i)
		}
		var e Peer
		copy(e.ID[:], b[:ident.Size])
		b = b[ident.Size:]
		alen := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < alen {
			return nil, fmt.Errorf("proto: truncated address %d", i)
		}
		e.Addr = string(b[:alen])
		b = b[alen:]
		out = append(out, e)
	}
	return out, nil
}

func containsID(es []Peer, id ident.ID) bool {
	for _, e := range es {
		if e.ID == id {
			return true
		}
	}
	return false
}

// peerSet is the core's memory of every peer it has heard of: one
// table sorted by ID, so a peer is found by one O(log n) search and
// successor/closest-predecessor queries walk the same order. Every
// sampling decision — gossip fanout, probe choice, eviction — draws
// from the core's own RNG over that order, making it a pure function
// of the core's seed and learn history. The zero value is an empty set.
//
// All methods assume the caller serializes access (the core is not
// goroutine-safe by design; the driver owns the lock).
type peerSet struct {
	peers []knownPeer // ascending by ID (linear order; used only for storage, never routing)
}

// knownPeer is one remembered peer and its suspect mark. The core sets
// the mark once it holds evidence the peer died: it evicted the peer as
// successor, cleared it as predecessor, or a repair probe to it went
// unanswered for a round. A suspect peer is still sampled, probed and
// gossiped, but bestProgress never offers it as a next hop; only
// Core.heardFrom clears the mark.
type knownPeer struct {
	Peer
	suspect bool
}

func (s *peerSet) len() int { return len(s.peers) }

// idAt reads the table for ident's searches.
func (s *peerSet) idAt(k int) *ident.ID { return &s.peers[k].ID }

// find returns the position of id in the table, or where it would be
// inserted, and whether it is there.
func (s *peerSet) find(id ident.ID) (int, bool) {
	i := ident.Search(len(s.peers), s.idAt, id)
	return i, i < len(s.peers) && s.peers[i].ID == id
}

func (s *peerSet) contains(id ident.ID) bool {
	_, ok := s.find(id)
	return ok
}

// insert adds a peer or refreshes the address of a known one; a
// refresh keeps the suspect mark, since hearing of a peer is not
// hearing from it.
func (s *peerSet) insert(e Peer) {
	i, ok := s.find(e.ID)
	if ok {
		s.peers[i].Peer = e
		return
	}
	s.peers = slices.Insert(s.peers, i, knownPeer{Peer: e})
}

// setSuspect sets or clears the suspect mark of a remembered peer; an
// unknown ID is ignored.
func (s *peerSet) setSuspect(id ident.ID, suspect bool) {
	if i, ok := s.find(id); ok {
		s.peers[i].suspect = suspect
	}
}

func (s *peerSet) remove(id ident.ID) {
	if i, ok := s.find(id); ok {
		s.peers = slices.Delete(s.peers, i, i+1)
	}
}

// sampleInto appends up to k distinct random peers to out, drawn from
// rng over the table; peers already in out (by ID) and peers rejected
// by skip are not chosen. With the set no larger than k the whole set
// is appended in sorted order.
func (s *peerSet) sampleInto(out []Peer, k int, rng *rand.Rand, skip func(ident.ID) bool) []Peer {
	m := len(s.peers)
	if m == 0 || k <= 0 {
		return out
	}
	if m <= k {
		for _, e := range s.peers {
			if (skip == nil || !skip(e.ID)) && !containsID(out, e.ID) {
				out = append(out, e.Peer)
			}
		}
		return out
	}
	// Random draws with a bounded retry budget: duplicates and skipped
	// IDs cost one attempt. The budget makes the loop total while
	// keeping the common case (k << m) two or three draws.
	want := len(out) + k
	for tries := 0; len(out) < want && tries < 8*k; tries++ {
		e := &s.peers[rng.Intn(m)]
		if (skip != nil && skip(e.ID)) || containsID(out, e.ID) {
			continue
		}
		out = append(out, e.Peer)
	}
	return out
}

// pick returns a random peer accepted by skip, scanning clockwise from
// a seeded-random start so a contiguous run of skipped IDs cannot
// starve anyone.
func (s *peerSet) pick(rng *rand.Rand, skip func(ident.ID) bool) (Peer, bool) {
	m := len(s.peers)
	if m == 0 {
		return Peer{}, false
	}
	start := rng.Intn(m)
	for i := 0; i < m; i++ {
		e := &s.peers[(start+i)%m]
		if skip != nil && skip(e.ID) {
			continue
		}
		return e.Peer, true
	}
	return Peer{}, false
}

// bestProgress returns the remembered peer closest to dst that makes
// legal greedy progress from cur (candidate ∈ (cur, dst], Algorithm 2),
// skipping exclude and suspect peers. The sorted table turns this into
// ident.Closest's one O(log n) search — the same lookup vring's pointer
// cache uses, here over the core's known set — plus one step
// counter-clockwise per skipped peer.
func (s *peerSet) bestProgress(cur, dst, exclude ident.ID) (Peer, bool) {
	m := len(s.peers)
	i, ok := ident.Closest(m, s.idAt, cur, dst)
	// Walking counter-clockwise only ever shrinks progress, so the first
	// peer that may take the packet is the answer; once a peer fails the
	// progress test, none further down passes it.
	for n := 0; ok && n < m; n++ {
		if e := &s.peers[i]; e.ID != exclude && !e.suspect {
			return e.Peer, true
		}
		i = (i - 1 + m) % m
		ok = ident.Progress(cur, dst, s.peers[i].ID)
	}
	return Peer{}, false
}
