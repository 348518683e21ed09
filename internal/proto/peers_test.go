package proto

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rofl/internal/ident"
)

func testPeer(v uint64) Peer {
	return Peer{ID: ident.FromUint64(v), Addr: fmt.Sprintf("peer:%d", v)}
}

func TestPeerCodecRoundTrip(t *testing.T) {
	in := []Peer{
		{ID: ident.FromString("a"), Addr: "127.0.0.1:1000"},
		{ID: ident.FromString("b"), Addr: "[::1]:2000"},
	}
	out, err := decodePeers(EncodePeers(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: %v", out)
	}
	if _, err := decodePeers([]byte{0}); err == nil {
		t.Fatal("short buffer must fail")
	}
	if _, err := decodePeers([]byte{0, 5, 1, 2}); err == nil {
		t.Fatal("truncated entries must fail")
	}
}

func TestPeerSetBasics(t *testing.T) {
	s := &peerSet{}
	for _, v := range []uint64{50, 10, 30, 20, 40} {
		s.insert(testPeer(v))
	}
	if s.len() != 5 {
		t.Fatalf("len=%d, want 5", s.len())
	}
	// Sorted ascending regardless of insertion order.
	for i, want := range []uint64{10, 20, 30, 40, 50} {
		if got := s.peers[i].ID; got != ident.FromUint64(want) {
			t.Fatalf("peers[%d] = %v, want %d", i, got, want)
		}
	}
	// Re-inserting refreshes the address without duplicating.
	s.insert(Peer{ID: ident.FromUint64(30), Addr: "peer:new"})
	if s.len() != 5 {
		t.Fatalf("duplicate insert grew the set to %d", s.len())
	}
	if i, ok := s.find(ident.FromUint64(30)); !ok || s.peers[i].Addr != "peer:new" {
		t.Fatalf("address not refreshed: %+v %v", s.peers, ok)
	}
	s.remove(ident.FromUint64(30))
	if s.contains(ident.FromUint64(30)) || s.len() != 4 {
		t.Fatal("remove failed")
	}
	s.remove(ident.FromUint64(30)) // absent remove is a no-op
	if s.len() != 4 {
		t.Fatal("removing an absent ID changed the set")
	}
}

func TestPeerSetBestProgress(t *testing.T) {
	s := &peerSet{}
	for _, v := range []uint64{500, 2500, 2999, 5000} {
		s.insert(testPeer(v))
	}
	cur := ident.FromUint64(1000)
	dst := ident.FromUint64(3000)
	// Closest candidate in (1000, 3000] is 2999.
	if e, ok := s.bestProgress(cur, dst, cur); !ok || e.ID != ident.FromUint64(2999) {
		t.Fatalf("bestProgress = %+v %v, want 2999", e, ok)
	}
	// Excluding 2999 falls back to the next-closest legal hop.
	if e, ok := s.bestProgress(cur, dst, ident.FromUint64(2999)); !ok || e.ID != ident.FromUint64(2500) {
		t.Fatalf("bestProgress excluding 2999 = %+v %v, want 2500", e, ok)
	}
	// No candidate in (5000, 200]-wrap except 500 → wrap-around works.
	if e, ok := s.bestProgress(ident.FromUint64(5000), ident.FromUint64(600), cur); !ok || e.ID != ident.FromUint64(500) {
		t.Fatalf("wrap-around bestProgress = %+v %v, want 500", e, ok)
	}
	// Nothing makes progress inside an empty interval.
	if _, ok := s.bestProgress(ident.FromUint64(2999), dst, cur); ok {
		t.Fatal("bestProgress invented a candidate: only 3000 itself could qualify")
	}
	if _, ok := (&peerSet{}).bestProgress(cur, dst, cur); ok {
		t.Fatal("empty set returned a candidate")
	}
	// Suspects are walked past like the excluded peer; a refresh keeps
	// the mark, clearing it restores the peer.
	s.setSuspect(ident.FromUint64(2999), true)
	s.insert(Peer{ID: ident.FromUint64(2999), Addr: "peer:gossiped"})
	if e, ok := s.bestProgress(cur, dst, cur); !ok || e.ID != ident.FromUint64(2500) {
		t.Fatalf("bestProgress past suspect 2999 = %+v %v, want 2500", e, ok)
	}
	if _, ok := s.bestProgress(cur, dst, ident.FromUint64(2500)); ok {
		t.Fatal("bestProgress returned a candidate with 2999 suspect and 2500 excluded")
	}
	s.setSuspect(ident.FromUint64(2999), false)
	if e, ok := s.bestProgress(cur, dst, cur); !ok || e.Addr != "peer:gossiped" {
		t.Fatalf("bestProgress after clearing = %+v %v, want 2999 at its refreshed address", e, ok)
	}
}

// TestPeerSetSampleSmall: a set no larger than the fanout is returned
// whole, in sorted order.
func TestPeerSetSampleSmall(t *testing.T) {
	s := &peerSet{}
	s.insert(testPeer(30))
	s.insert(testPeer(10))
	rng := rand.New(rand.NewSource(1))
	got := s.sampleInto(nil, 3, rng, nil)
	want := []Peer{testPeer(10), testPeer(30)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("small sample = %+v, want whole set sorted %+v", got, want)
	}
}

// modelPeerSet is the earlier two-index peerSet — a map keyed by ID
// beside a sorted ID slice — kept as the reference the one-table
// peerSet must match draw for draw.
type modelPeerSet struct {
	byID map[ident.ID]knownPeer
	ids  []ident.ID
}

func (s *modelPeerSet) idAt(k int) *ident.ID { return &s.ids[k] }

func (s *modelPeerSet) contains(id ident.ID) bool {
	_, ok := s.byID[id]
	return ok
}

func (s *modelPeerSet) insert(e Peer) {
	if k, ok := s.byID[e.ID]; ok {
		k.Peer = e
		s.byID[e.ID] = k
		return
	}
	i := ident.Search(len(s.ids), s.idAt, e.ID)
	s.ids = append(s.ids, ident.ID{})
	copy(s.ids[i+1:], s.ids[i:])
	s.ids[i] = e.ID
	s.byID[e.ID] = knownPeer{Peer: e}
}

func (s *modelPeerSet) setSuspect(id ident.ID, suspect bool) {
	if k, ok := s.byID[id]; ok {
		k.suspect = suspect
		s.byID[id] = k
	}
}

func (s *modelPeerSet) remove(id ident.ID) {
	if _, ok := s.byID[id]; !ok {
		return
	}
	delete(s.byID, id)
	i := ident.Search(len(s.ids), s.idAt, id)
	s.ids = append(s.ids[:i], s.ids[i+1:]...)
}

func (s *modelPeerSet) sampleInto(out []Peer, k int, rng *rand.Rand, skip func(ident.ID) bool) []Peer {
	m := len(s.ids)
	if m == 0 || k <= 0 {
		return out
	}
	if m <= k {
		for _, id := range s.ids {
			if (skip == nil || !skip(id)) && !containsID(out, id) {
				out = append(out, s.byID[id].Peer)
			}
		}
		return out
	}
	want := len(out) + k
	for tries := 0; len(out) < want && tries < 8*k; tries++ {
		id := s.ids[rng.Intn(m)]
		if (skip != nil && skip(id)) || containsID(out, id) {
			continue
		}
		out = append(out, s.byID[id].Peer)
	}
	return out
}

func (s *modelPeerSet) pick(rng *rand.Rand, skip func(ident.ID) bool) (Peer, bool) {
	m := len(s.ids)
	if m == 0 {
		return Peer{}, false
	}
	start := rng.Intn(m)
	for i := 0; i < m; i++ {
		id := s.ids[(start+i)%m]
		if skip != nil && skip(id) {
			continue
		}
		return s.byID[id].Peer, true
	}
	return Peer{}, false
}

func (s *modelPeerSet) bestProgress(cur, dst, exclude ident.ID) (Peer, bool) {
	m := len(s.ids)
	i, ok := ident.Closest(m, s.idAt, cur, dst)
	for n := 0; ok && n < m; n++ {
		if e := s.byID[s.ids[i]]; e.ID != exclude && !e.suspect {
			return e.Peer, true
		}
		i = (i - 1 + m) % m
		ok = ident.Progress(cur, dst, s.ids[i])
	}
	return Peer{}, false
}

// FuzzPeerSetMatchesModel runs one stream of operations — three bytes
// each: the operation, then two operands — against peerSet and
// modelPeerSet, each drawing from its own rand.Rand on the same seed,
// and demands equal results and equal contents throughout. IDs come
// from a 48-label universe so inserts refresh and removes hit often.
// The seeds are two generated streams of 300 operations: one over the
// whole universe, one over six labels, so the set stays small enough
// for sampleInto's whole-set branch.
func FuzzPeerSetMatchesModel(f *testing.F) {
	for _, labels := range []int{48, 6} {
		rng := rand.New(rand.NewSource(int64(labels)))
		ops := make([]byte, 900)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
			if i%3 == 1 {
				ops[i] %= byte(labels)
			}
		}
		f.Add(int64(labels), ops)
	}
	var universe [48]ident.ID
	for i := range universe {
		universe[i] = ident.FromString(fmt.Sprintf("peer-%d", i))
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		var got peerSet
		want := modelPeerSet{byID: make(map[ident.ID]knownPeer)}
		rg, rw := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i+2 < len(ops); i += 3 {
			a, b := universe[int(ops[i+1])%len(universe)], ops[i+2]
			skip := func(id ident.ID) bool { return b%4 != 0 && id[0]%4 == b%4 }
			switch ops[i] % 8 {
			case 0: // insert, or refresh when a is known
				p := Peer{ID: a, Addr: fmt.Sprintf("addr-%d", b)}
				got.insert(p)
				want.insert(p)
			case 1: // refresh the b-th known peer
				if n := len(want.ids); n > 0 {
					p := Peer{ID: want.ids[int(b)%n], Addr: fmt.Sprintf("re-%d", b)}
					got.insert(p)
					want.insert(p)
				}
			case 2:
				got.remove(a)
				want.remove(a)
			case 3:
				got.setSuspect(a, b%2 == 1)
				want.setSuspect(a, b%2 == 1)
			case 4:
				if g, w := got.contains(a), want.contains(a); g != w {
					t.Fatalf("op %d: contains(%v) = %v, model %v", i/3, a.Short(), g, w)
				}
			case 5:
				dst, exclude := universe[int(b)%len(universe)], universe[int(ops[i+1]^b)%len(universe)]
				gp, gok := got.bestProgress(a, dst, exclude)
				wp, wok := want.bestProgress(a, dst, exclude)
				if gp != wp || gok != wok {
					t.Fatalf("op %d: bestProgress = %+v %v, model %+v %v", i/3, gp, gok, wp, wok)
				}
			case 6:
				seedOut := []Peer{{ID: a, Addr: "out"}}
				g := got.sampleInto(seedOut, int(b%6), rg, skip)
				w := want.sampleInto(append([]Peer(nil), seedOut...), int(b%6), rw, skip)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("op %d: sampleInto = %+v, model %+v", i/3, g, w)
				}
			case 7:
				gp, gok := got.pick(rg, skip)
				wp, wok := want.pick(rw, skip)
				if gp != wp || gok != wok {
					t.Fatalf("op %d: pick = %+v %v, model %+v %v", i/3, gp, gok, wp, wok)
				}
			}
			if got.len() != len(want.ids) {
				t.Fatalf("op %d: len %d, model %d", i/3, got.len(), len(want.ids))
			}
			for k, id := range want.ids {
				if e := got.peers[k]; e != want.byID[id] {
					t.Fatalf("op %d: entry %d = %+v, model %+v", i/3, k, e, want.byID[id])
				}
			}
		}
	})
}
