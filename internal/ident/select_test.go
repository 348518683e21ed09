package ident

import (
	"math/rand"
	"sort"
	"testing"
)

// scanBest runs candidates through a Scan in slice order.
func scanBest(cur, dst ID, cands []ID) (ID, bool) {
	s := NewScan(cur, dst)
	for _, c := range cands {
		s.Offer(c)
	}
	return s.Best()
}

func TestCloserWithoutOvershoot(t *testing.T) {
	cur, dst := id64(10), id64(100)
	cands := []ID{id64(5), id64(40), id64(90), id64(120), id64(100)}
	best, ok := scanBest(cur, dst, cands)
	if !ok || best != id64(100) {
		t.Fatalf("best = %s ok=%v, want exactly dst", best.Short(), ok)
	}
	best, ok = scanBest(cur, dst, []ID{id64(40), id64(90)})
	if !ok || best != id64(90) {
		t.Fatalf("best = %s, want 90", best.Short())
	}
	if _, ok := scanBest(cur, dst, []ID{id64(5), id64(120)}); ok {
		t.Fatal("no candidate should qualify")
	}
	if _, ok := scanBest(cur, dst, nil); ok {
		t.Fatal("empty candidate set should not qualify")
	}
	// Wrap-around: from 200 toward 3 the legal arc crosses zero.
	best, ok = scanBest(id64(200), id64(3), []ID{id64(100), id64(250), id64(1), id64(4)})
	if !ok || best != id64(1) {
		t.Fatalf("wrap: best = %s ok=%v, want 1", best.Short(), ok)
	}
}

func TestCloserWithoutOvershootNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		cur, dst := Random(rng), Random(rng)
		cands := make([]ID, 8)
		for j := range cands {
			cands[j] = Random(rng)
		}
		best, ok := scanBest(cur, dst, cands)
		if !ok {
			for _, c := range cands {
				if Progress(cur, dst, c) {
					t.Fatalf("legal candidate %s refused: cur=%s dst=%s", c, cur, dst)
				}
			}
			continue
		}
		if !Progress(cur, dst, best) || !Closer(dst, best, cur) {
			t.Fatalf("chosen hop does not reduce distance: cur=%s dst=%s best=%s", cur, dst, best)
		}
		// best must dominate every other legal candidate.
		for _, c := range cands {
			if Progress(cur, dst, c) && Closer(dst, c, best) {
				t.Fatalf("candidate %s beats chosen %s", c, best)
			}
		}
	}
}

// Offer's return value is what callers hang their payload on: true
// exactly when the candidate became the incumbent, so an equally close
// later offer (the same identifier from a lower-precedence source) must
// report false and leave the earlier payload in place.
func TestScanTieKeepsIncumbent(t *testing.T) {
	s := NewScan(id64(10), id64(100))
	if s.Offer(id64(5)) {
		t.Fatal("an illegal candidate must not be taken")
	}
	if !s.Offer(id64(40)) {
		t.Fatal("first legal candidate must be taken")
	}
	if s.Offer(id64(40)) {
		t.Fatal("a tie must keep the incumbent")
	}
	if s.Offer(id64(30)) {
		t.Fatal("a farther candidate must not displace the incumbent")
	}
	if !s.Offer(id64(90)) {
		t.Fatal("a strictly closer candidate must win")
	}
	if best, ok := s.Best(); !ok || best != id64(90) {
		t.Fatalf("best = %s ok=%v", best.Short(), ok)
	}
	// A packet already at its destination's slot has nowhere to go.
	s = NewScan(id64(7), id64(7))
	if s.Offer(id64(8)) || s.Offer(id64(7)) {
		t.Fatal("cur == dst admits no progress")
	}
}

func TestSearchAndFloor(t *testing.T) {
	ids := []ID{id64(10), id64(20), id64(30)}
	at := func(k int) *ID { return &ids[k] }
	for _, c := range []struct {
		id            uint64
		search, floor int
	}{
		{5, 0, -1}, {10, 0, 0}, {15, 1, 0}, {20, 1, 1}, {30, 2, 2}, {31, 3, 2},
	} {
		if got := Search(len(ids), at, id64(c.id)); got != c.search {
			t.Errorf("Search(%d) = %d want %d", c.id, got, c.search)
		}
		if got := Floor(len(ids), at, id64(c.id)); got != c.floor {
			t.Errorf("Floor(%d) = %d want %d", c.id, got, c.floor)
		}
	}
	if Search(0, at, id64(1)) != 0 || Floor(0, at, id64(1)) != -1 {
		t.Fatal("empty storage")
	}
}

func TestClosest(t *testing.T) {
	ids := []ID{id64(10), id64(20), id64(30)}
	at := func(k int) *ID { return &ids[k] }
	if i, ok := Closest(len(ids), at, id64(5), id64(25)); !ok || ids[i] != id64(20) {
		t.Fatalf("i=%d ok=%v", i, ok)
	}
	// An exact match is the destination itself.
	if i, ok := Closest(len(ids), at, id64(5), id64(30)); !ok || ids[i] != id64(30) {
		t.Fatalf("exact: i=%d ok=%v", i, ok)
	}
	// dst before all entries: wraps to the last (30), which from pos 5
	// toward 3 is progress (30 in (5, 3] circularly).
	if i, ok := Closest(len(ids), at, id64(5), id64(3)); !ok || ids[i] != id64(30) {
		t.Fatalf("wrap: i=%d ok=%v", i, ok)
	}
	// The floor lies behind the position: no progress, a miss.
	if _, ok := Closest(len(ids), at, id64(25), id64(27)); ok {
		t.Fatal("nothing in (25,27]")
	}
	if _, ok := Closest(1, at, id64(15), id64(20)); ok {
		t.Fatal("entry behind the position must not hit")
	}
	if _, ok := Closest(0, at, id64(0), id64(5)); ok {
		t.Fatal("empty set")
	}
}

// The two renditions are one rule: over the same candidates the sorted
// search and the scan agree on the winner.
func TestClosestAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		ids := make([]ID, 1+rng.Intn(12))
		for j := range ids {
			ids[j] = Random(rng)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a].Less(ids[b]) })
		cur, dst := Random(rng), Random(rng)
		want, wantOK := scanBest(cur, dst, ids)
		k, ok := Closest(len(ids), func(k int) *ID { return &ids[k] }, cur, dst)
		if ok != wantOK || (ok && ids[k] != want) {
			t.Fatalf("cur=%s dst=%s: sorted (%v,%v) scan (%s,%v)", cur, dst, k, ok, want, wantOK)
		}
	}
}

func TestSelectZeroAllocs(t *testing.T) {
	ids := []ID{id64(10), id64(20), id64(30)}
	allocs := testing.AllocsPerRun(100, func() {
		s := NewScan(id64(5), id64(25))
		for _, c := range ids {
			s.Offer(c)
		}
		Closest(len(ids), func(k int) *ID { return &ids[k] }, id64(5), id64(25))
	})
	if allocs != 0 {
		t.Fatalf("selection allocates: %v allocs/run", allocs)
	}
}

// refScan is Scan as it stood before Offer became one subtraction: the
// legality test and the remaining distance computed separately for every
// candidate, on the reference byte arithmetic. Kept as the decision's
// oracle.
type refScan struct {
	cur, dst ID
	best     ID
	left     ID // best's remaining distance to dst
	found    bool
}

func (s *refScan) refOffer(c ID) bool {
	if !refProgress(s.cur, s.dst, c) {
		return false
	}
	left := refSub(s.dst, c)
	if s.found && refCmp(left, s.left) >= 0 {
		return false
	}
	s.best, s.left, s.found = c, left, true
	return true
}

// A faster Offer may not change one decision: over candidate streams
// with duplicates, exact ties, candidates equal to cur and dst, and arcs
// straddling zero, it accepts and rejects exactly where the reference
// does and ends on the same Best.
func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	bs := arithmeticBoundaries()
	pick := func() ID {
		if rng.Intn(4) == 0 {
			return bs[rng.Intn(len(bs))]
		}
		return Random(rng)
	}
	for i := 0; i < 20000; i++ {
		cur, dst := pick(), pick()
		switch i % 8 {
		case 1:
			dst = cur
		case 2:
			dst = cur.Next() // the narrowest arc
		case 3:
			dst = cur.Prev() // the widest: everything but cur is legal
		case 4:
			cur, dst = maxID.Sub(id64(uint64(rng.Intn(8)))), id64(uint64(rng.Intn(8))) // straddles zero
		}
		cands := make([]ID, 1+rng.Intn(16))
		for j := range cands {
			switch rng.Intn(8) {
			case 0:
				cands[j] = cur
			case 1:
				cands[j] = dst
			case 2:
				cands[j] = cands[rng.Intn(j+1)] // a duplicate: an exact tie
			case 3:
				cands[j] = cur.Add(id64(uint64(rng.Intn(16)))) // just past cur
			case 4:
				cands[j] = dst.Sub(id64(uint64(rng.Intn(16))).Sub(id64(8))) // around dst, both sides
			default:
				cands[j] = pick()
			}
		}
		got, want := NewScan(cur, dst), refScan{cur: cur, dst: dst}
		for j, c := range cands {
			beats := got.Beats(c)
			if g, w := got.Offer(c), want.refOffer(c); g != w || beats != w {
				t.Fatalf("cur=%s dst=%s offer %d (%s): took=%v, Beats said %v, reference %v", cur, dst, j, c, g, beats, w)
			}
		}
		best, ok := got.Best()
		if ok != want.found || (ok && best != want.best) {
			t.Fatalf("cur=%s dst=%s: Best = (%s,%v), reference (%s,%v)", cur, dst, best, ok, want.best, want.found)
		}
	}
}
