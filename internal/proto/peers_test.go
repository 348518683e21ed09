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
	out, err := DecodePeers(EncodePeers(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: %v", out)
	}
	if _, err := DecodePeers([]byte{0}); err == nil {
		t.Fatal("short buffer must fail")
	}
	if _, err := DecodePeers([]byte{0, 5, 1, 2}); err == nil {
		t.Fatal("truncated entries must fail")
	}
}

func TestPeerSetBasics(t *testing.T) {
	s := newPeerSet()
	for _, v := range []uint64{50, 10, 30, 20, 40} {
		s.insert(testPeer(v))
	}
	if s.len() != 5 {
		t.Fatalf("len=%d, want 5", s.len())
	}
	// Sorted ascending regardless of insertion order.
	for i, want := range []uint64{10, 20, 30, 40, 50} {
		if got := s.ids[i]; got != ident.FromUint64(want) {
			t.Fatalf("ids[%d] = %v, want %d", i, got, want)
		}
	}
	// Re-inserting refreshes the address without duplicating.
	s.insert(Peer{ID: ident.FromUint64(30), Addr: "peer:new"})
	if s.len() != 5 {
		t.Fatalf("duplicate insert grew the set to %d", s.len())
	}
	if e, ok := s.byID[ident.FromUint64(30)]; !ok || e.Addr != "peer:new" {
		t.Fatalf("address not refreshed: %+v %v", e, ok)
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
	s := newPeerSet()
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
	if _, ok := newPeerSet().bestProgress(cur, dst, cur); ok {
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
	s := newPeerSet()
	s.insert(testPeer(30))
	s.insert(testPeer(10))
	rng := rand.New(rand.NewSource(1))
	got := s.sampleInto(nil, 3, rng, nil)
	want := []Peer{testPeer(10), testPeer(30)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("small sample = %+v, want whole set sorted %+v", got, want)
	}
}
