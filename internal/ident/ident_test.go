package ident

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func id64(v uint64) ID { return FromUint64(v) }

func TestCmpAndLess(t *testing.T) {
	cases := []struct {
		a, b ID
		want int
	}{
		{zero, zero, 0},
		{zero, maxID, -1},
		{maxID, zero, 1},
		{id64(1), id64(2), -1},
		{id64(2), id64(1), 1},
		{id64(7), id64(7), 0},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%s,%s)=%d want %d", c.a.Short(), c.b.Short(), got, c.want)
		}
		if got := c.a.Less(c.b); got != (c.want < 0) {
			t.Errorf("Less(%s,%s)=%v", c.a.Short(), c.b.Short(), got)
		}
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b [16]byte) bool {
		x, y := ID(a), ID(b)
		return x.Add(y).Sub(y) == x && x.Sub(y).Add(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddCarriesAcrossBytes(t *testing.T) {
	a := maxID
	if got := a.Add(one); got != zero {
		t.Fatalf("Max+1 = %s, want Zero", got)
	}
	if got := zero.Sub(one); got != maxID {
		t.Fatalf("0-1 = %s, want Max", got)
	}
	if got := zero.Prev(); got != maxID {
		t.Fatalf("Prev(0) = %s, want Max", got)
	}
	if got := maxID.Next(); got != zero {
		t.Fatalf("Next(Max) = %s, want 0", got)
	}
}

func TestDistance(t *testing.T) {
	cases := []struct {
		a, b, want ID
	}{
		{id64(5), id64(9), id64(4)},
		{id64(9), id64(5), maxID.Sub(id64(3))}, // wraps: 2^128 - 4
		{id64(7), id64(7), zero},
		{zero, maxID, maxID},
	}
	for _, c := range cases {
		if got := c.a.Distance(c.b); got != c.want {
			t.Errorf("Distance(%s,%s) = %s want %s", c.a.Short(), c.b.Short(), got, c.want)
		}
	}
}

func TestDistanceAsymmetryProperty(t *testing.T) {
	// d(a,b) + d(b,a) == 0 mod 2^128 unless a == b, in which case both are 0.
	f := func(a, b [16]byte) bool {
		x, y := ID(a), ID(b)
		sum := x.Distance(y).Add(y.Distance(x))
		if x == y {
			return sum == zero && x.Distance(y) == zero
		}
		return sum == zero && x.Distance(y) != zero
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBetween(t *testing.T) {
	cases := []struct {
		x, a, b ID
		want    bool
	}{
		{id64(5), id64(1), id64(9), true},
		{id64(9), id64(1), id64(9), true},  // right-inclusive
		{id64(1), id64(1), id64(9), false}, // left-exclusive
		{id64(0), id64(1), id64(9), false},
		{id64(10), id64(1), id64(9), false},
		// wrapping interval (9, 1]
		{id64(0), id64(9), id64(1), true},
		{id64(1), id64(9), id64(1), true},
		{id64(5), id64(9), id64(1), false},
		{maxID, id64(9), id64(1), true},
		// degenerate interval (a, a] is the whole circle minus a
		{id64(3), id64(7), id64(7), true},
		{id64(7), id64(7), id64(7), false},
	}
	for _, c := range cases {
		if got := Between(c.x, c.a, c.b); got != c.want {
			t.Errorf("Between(%s, %s, %s) = %v want %v", c.x.Short(), c.a.Short(), c.b.Short(), got, c.want)
		}
	}
}

func TestBetweenOpen(t *testing.T) {
	if BetweenOpen(id64(9), id64(1), id64(9)) {
		t.Error("BetweenOpen should exclude the right endpoint")
	}
	if !BetweenOpen(id64(5), id64(1), id64(9)) {
		t.Error("interior point should be in open interval")
	}
}

func TestBetweenPartitionProperty(t *testing.T) {
	// For distinct a, b: every x != a is in exactly one of (a,b] and (b,a]
	// ... except that both intervals exclude a and x==a is in (b,a].
	f := func(xr, ar, br [16]byte) bool {
		x, a, b := ID(xr), ID(ar), ID(br)
		if a == b {
			return true
		}
		in1 := Between(x, a, b)
		in2 := Between(x, b, a)
		if x == a {
			return !in1 && in2
		}
		if x == b {
			return in1 && !in2
		}
		return in1 != in2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProgress(t *testing.T) {
	cur, dst := id64(10), id64(100)
	if !Progress(cur, dst, id64(50)) {
		t.Error("50 should be progress from 10 toward 100")
	}
	if !Progress(cur, dst, dst) {
		t.Error("destination itself is legal progress")
	}
	if Progress(cur, dst, id64(101)) {
		t.Error("overshoot must be rejected")
	}
	if Progress(cur, dst, cur) {
		t.Error("staying put is not progress")
	}
	if Progress(dst, dst, id64(50)) {
		t.Error("no progress possible when cur == dst")
	}
}

func TestProgressStrictlyDecreasesDistance(t *testing.T) {
	// The loop-freedom core: any legal hop strictly reduces clockwise
	// distance to the destination.
	f := func(curR, dstR, candR [16]byte) bool {
		cur, dst, cand := ID(curR), ID(dstR), ID(candR)
		if !Progress(cur, dst, cand) {
			return true
		}
		return cand.Distance(dst).Cmp(cur.Distance(dst)) < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommonPrefixLen(t *testing.T) {
	a := id64(0)
	if got := CommonPrefixLen(a, a); got != idBits {
		t.Fatalf("CommonPrefixLen(x,x) = %d want %d", got, idBits)
	}
	b := a
	b[0] = 0x80
	if got := CommonPrefixLen(a, b); got != 0 {
		t.Fatalf("differ in first bit: got %d", got)
	}
	c := a
	c[5] = 0x01
	if got := CommonPrefixLen(a, c); got != 5*8+7 {
		t.Fatalf("got %d want %d", got, 5*8+7)
	}
}

// Digit reads the hex digits of the ID's text form, most significant
// first: the digit string of a known ID round-trips through Digit.
func TestDigitRoundTrip(t *testing.T) {
	const hex = "0123456789abcdeffedcba9876543210"
	id, err := Parse(hex)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < Digits; pos++ {
		if got, want := "0123456789abcdef"[id.Digit(pos)], hex[pos]; got != want {
			t.Fatalf("digit %d = %c want %c", pos, got, want)
		}
	}
}

func TestDigitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Digit should panic on out-of-range index")
		}
	}()
	zero.Digit(Digits)
}

func TestParseAndString(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		id := Random(rng)
		got, err := Parse(id.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != id {
			t.Fatalf("round trip failed: %s != %s", got, id)
		}
	}
	if _, err := Parse("abc"); err == nil {
		t.Fatal("short string should fail")
	}
	if _, err := Parse("zz000000000000000000000000000000"); err == nil {
		t.Fatal("non-hex string should fail")
	}
}

func TestFromBytesDeterministic(t *testing.T) {
	a := FromString("alpha")
	b := FromString("alpha")
	c := FromString("beta")
	if a != b {
		t.Fatal("FromString must be deterministic")
	}
	if a == c {
		t.Fatal("distinct inputs should map to distinct labels")
	}
}

func TestGroupMembers(t *testing.T) {
	g := GroupFromString("video-service")
	m1 := g.Member(1)
	m2 := g.Member(2)
	if m1 == m2 {
		t.Fatal("distinct suffixes must yield distinct members")
	}
	if !SameGroup(m1, m2) {
		t.Fatal("members of one group must share the prefix")
	}
	if GroupOf(m1) != g {
		t.Fatal("GroupOf must invert Member")
	}
	if Suffix(m1) != 1 || Suffix(m2) != 2 {
		t.Fatalf("Suffix round trip failed: %d %d", Suffix(m1), Suffix(m2))
	}
	other := GroupFromString("other")
	if SameGroup(m1, other.Member(1)) {
		t.Fatal("different groups must not collide")
	}
}

func TestGroupMembersAreContiguousOnRing(t *testing.T) {
	// All members of G sort together: no foreign random ID should fall
	// between two members except with negligible probability — we verify
	// the deterministic part: members sorted by suffix are sorted as IDs.
	g := GroupFromString("g")
	ids := make([]ID, 10)
	for i := range ids {
		ids[i] = g.Member(uint32(i * 1000))
	}
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i].Less(ids[j]) }) {
		t.Fatal("members with increasing suffix must be sorted on the ring")
	}
}

func TestRandomMemberStaysInGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := GroupFromString("anycast")
	for i := 0; i < 100; i++ {
		if GroupOf(g.RandomMember(rng)) != g {
			t.Fatal("random member left the group")
		}
	}
}

func TestLow64(t *testing.T) {
	if got := id64(0xdeadbeef).Low64(); got != 0xdeadbeef {
		t.Fatalf("Low64 = %#x", got)
	}
}

func BenchmarkDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x, y := Random(rng), Random(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Distance(y)
	}
}

func BenchmarkCloserWithoutOvershoot(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	cur, dst := Random(rng), Random(rng)
	cands := make([]ID, 64)
	for i := range cands {
		cands[i] = Random(rng)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scanBest(cur, dst, cands)
	}
}

func TestMarshalersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		id := Random(rng)
		txt, err := id.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back ID
		if err := back.UnmarshalText(txt); err != nil || back != id {
			t.Fatalf("text round trip: %v %v", back, err)
		}
		bin, err := id.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back2 ID
		if err := back2.UnmarshalBinary(bin); err != nil || back2 != id {
			t.Fatalf("binary round trip: %v %v", back2, err)
		}
	}
	var bad ID
	if err := bad.UnmarshalText([]byte("zz")); err == nil {
		t.Fatal("bad text must fail")
	}
	if err := bad.UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Fatal("short binary must fail")
	}
}

// --- Reference oracle for the two-word arithmetic -------------------------
//
// The byte-at-a-time loops the package computed with before it moved to
// machine words, kept verbatim: slow, obviously right, and independent
// of encoding/binary and math/bits.

func refCmp(id, other ID) int {
	for i := 0; i < Size; i++ {
		switch {
		case id[i] < other[i]:
			return -1
		case id[i] > other[i]:
			return 1
		}
	}
	return 0
}

func refAdd(id, other ID) ID {
	var out ID
	var carry uint16
	for i := Size - 1; i >= 0; i-- {
		s := uint16(id[i]) + uint16(other[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

func refSub(id, other ID) ID {
	var out ID
	var borrow int16
	for i := Size - 1; i >= 0; i-- {
		d := int16(id[i]) - int16(other[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

func refBetween(x, a, b ID) bool {
	if a == b {
		return x != a
	}
	da := refSub(x, a)
	db := refSub(b, a)
	return refCmp(da, zero) > 0 && refCmp(da, db) <= 0
}

func refProgress(cur, dst, candidate ID) bool {
	if cur == dst {
		return false // already at the destination's slot
	}
	return refBetween(candidate, cur, dst)
}

func refCommonPrefixLen(a, b ID) int {
	for i := 0; i < Size; i++ {
		x := a[i] ^ b[i]
		if x == 0 {
			continue
		}
		n := i * 8
		for mask := byte(0x80); mask != 0; mask >>= 1 {
			if x&mask != 0 {
				return n
			}
			n++
		}
	}
	return idBits
}

// checkArithmetic holds every rewritten function to the reference on one
// triple, in each role a triple can play.
func checkArithmetic(t *testing.T, a, b, c ID) {
	t.Helper()
	if got, want := a.Cmp(b), refCmp(a, b); got != want {
		t.Fatalf("Cmp(%s,%s) = %d want %d", a, b, got, want)
	}
	if got, want := a.Less(b), refCmp(a, b) < 0; got != want {
		t.Fatalf("Less(%s,%s) = %v want %v", a, b, got, want)
	}
	if got, want := a.Add(b), refAdd(a, b); got != want {
		t.Fatalf("Add(%s,%s) = %s want %s", a, b, got, want)
	}
	if got, want := a.Sub(b), refSub(a, b); got != want {
		t.Fatalf("Sub(%s,%s) = %s want %s", a, b, got, want)
	}
	if got, want := a.Distance(b), refSub(b, a); got != want {
		t.Fatalf("Distance(%s,%s) = %s want %s", a, b, got, want)
	}
	if got, want := a.Next(), refAdd(a, one); got != want {
		t.Fatalf("Next(%s) = %s want %s", a, got, want)
	}
	if got, want := a.Prev(), refSub(a, one); got != want {
		t.Fatalf("Prev(%s) = %s want %s", a, got, want)
	}
	if got, want := Between(a, b, c), refBetween(a, b, c); got != want {
		t.Fatalf("Between(%s,%s,%s) = %v want %v", a, b, c, got, want)
	}
	if got, want := BetweenOpen(a, b, c), refBetween(a, b, c) && a != c; got != want {
		t.Fatalf("BetweenOpen(%s,%s,%s) = %v want %v", a, b, c, got, want)
	}
	if got, want := Progress(a, b, c), refProgress(a, b, c); got != want {
		t.Fatalf("Progress(%s,%s,%s) = %v want %v", a, b, c, got, want)
	}
	if got, want := Closer(a, b, c), refCmp(refSub(a, b), refSub(a, c)) < 0; got != want {
		t.Fatalf("Closer(%s,%s,%s) = %v want %v", a, b, c, got, want)
	}
	if got, want := Within(a, b, c), refCmp(refSub(b, a), c) <= 0; got != want {
		t.Fatalf("Within(%s,%s,%s) = %v want %v", a, b, c, got, want)
	}
	if got, want := CommonPrefixLen(a, b), refCommonPrefixLen(a, b); got != want {
		t.Fatalf("CommonPrefixLen(%s,%s) = %d want %d", a, b, got, want)
	}
}

// arithmeticBoundaries is where a carry or borrow crosses the word seam
// or the namespace origin: zero, one, all-ones, 2^64-1, 2^64, 2^64+1 and
// 2^127, each with its two neighbours.
func arithmeticBoundaries() []ID {
	pow64 := ID{7: 1}
	centres := []ID{zero, one, maxID, id64(^uint64(0)), pow64, pow64.Next(), {0: 0x80}}
	var out []ID
	for _, c := range centres {
		out = append(out, refSub(c, one), c, refAdd(c, one))
	}
	return out
}

func TestArithmeticMatchesReference(t *testing.T) {
	// Every ordered triple of boundary values: a == b, cur == dst and
	// arcs that wrap through zero all occur among them.
	bs := arithmeticBoundaries()
	for _, a := range bs {
		for _, b := range bs {
			for _, c := range bs {
				checkArithmetic(t, a, b, c)
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100000; i++ {
		a, b, c := Random(rng), Random(rng), Random(rng)
		switch i % 8 { // uniform draws never collide or share a high word
		case 1:
			b = a
		case 2:
			c = b
		case 3:
			copy(b[:8], a[:8])
		case 4:
			copy(b[8:], a[8:])
			copy(c[:8], a[:8])
		case 5:
			c = bs[rng.Intn(len(bs))]
		}
		checkArithmetic(t, a, b, c)
	}
}

func FuzzArithmeticMatchesReference(f *testing.F) {
	bs := arithmeticBoundaries()
	for i := range bs {
		a, b, c := bs[i], bs[(i+1)%len(bs)], bs[(i+5)%len(bs)]
		f.Add(a[:], b[:], c[:])
		f.Add(a[:], a[:], c[:])
	}
	f.Fuzz(func(t *testing.T, ab, bb, cb []byte) {
		var a, b, c ID
		if a.UnmarshalBinary(ab) != nil || b.UnmarshalBinary(bb) != nil || c.UnmarshalBinary(cb) != nil {
			t.Skip("not three 16-byte identifiers")
		}
		checkArithmetic(t, a, b, c)
	})
}

// The word form counts leading zeros of an XOR; hold it to the old
// byte-then-bit loop at every prefix length, with the first differing
// bit followed by agreement, disagreement and noise.
func TestCommonPrefixLenEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for n := 0; n <= idBits; n++ {
		for trial := 0; trial < 64; trial++ {
			a := Random(rng)
			b := a
			if n < idBits {
				b[n/8] ^= 0x80 >> (n % 8)
				switch trial % 3 { // what follows the first differing bit
				case 1:
					for i := n + 1; i < idBits; i++ {
						b[i/8] ^= 0x80 >> (i % 8)
					}
				case 2:
					noise := Random(rng)
					for i := n + 1; i < idBits; i++ {
						b[i/8] ^= noise[i/8] & (0x80 >> (i % 8))
					}
				}
			}
			if got := CommonPrefixLen(a, b); got != n || got != refCommonPrefixLen(a, b) {
				t.Fatalf("CommonPrefixLen(%s,%s) = %d want %d (reference %d)", a, b, got, n, refCommonPrefixLen(a, b))
			}
		}
	}
}
