package ident

import "sort"

// This file is the repository's only implementation of the paper's
// forwarding decision (Algorithm 2), "the closest known identifier to
// the destination that does not overshoot it", in the two forms callers
// hold candidates in: Scan for candidates met one at a time, Closest for
// candidates stored ascending by ID (with Search and Floor, the binary
// searches sorted storage needs). Which candidates are stale, which ring
// level goes first and which peer is excluded stay with the caller; the
// comparison and the legality test do not.

// Closer reports whether a is strictly closer to dst than b, in
// clockwise distance still to cover.
func Closer(dst, a, b ID) bool { return span(a, dst).less(span(b, dst)) }

// Scan is Algorithm 2 over a stream of candidates: Offer each one in
// precedence order (ring pointers before cache entries, §2.2) and read
// the winner from Best. A candidate must make legal Progress from cur;
// a strictly closer one displaces the incumbent and a tie keeps it,
// which is what gives earlier offers precedence.
//
// Everything is measured clockwise from cur: a candidate at distance d
// is legal iff 0 < d <= cur→dst, and since it then has cur→dst - d left
// to cover, the closest to dst is the one with the largest d. Holding
// cur→dst and cur→best makes Offer one subtraction.
type Scan struct {
	cur  u128
	dst  u128 // cur→dst
	far  u128 // cur→best; zero until a candidate qualifies
	best ID
}

// NewScan starts a selection for a packet at ring position cur heading
// for dst.
func NewScan(cur, dst ID) Scan {
	c := cur.words()
	return Scan{cur: c, dst: dst.words().sub(c)}
}

// Offer presents one candidate and reports whether it became the
// incumbent, so callers can keep their own payload in step.
func (s *Scan) Offer(c ID) bool {
	d := c.words().sub(s.cur)
	if s.dst.less(d) || !s.far.less(d) {
		return false // overshoots dst, or no farther along than the incumbent (or than cur)
	}
	s.best, s.far = c, d
	return true
}

// Beats reports whether Offer(c) would make c the incumbent: a caller
// with a veto of its own asks first and vetoes only would-be winners.
func (s *Scan) Beats(c ID) bool {
	d := c.words().sub(s.cur)
	return !s.dst.less(d) && s.far.less(d)
}

// Best returns the incumbent and whether any candidate qualified.
func (s *Scan) Best() (ID, bool) { return s.best, s.far != (u128{}) }

// Search returns the smallest index in [0, n) whose identifier is >= id
// in linear order, or n: the find-by-ID lower bound over identifiers
// stored ascending and read in place through at (a pointer, so a probe
// copies nothing).
func Search(n int, at func(int) *ID, id ID) int {
	return sort.Search(n, func(k int) bool { return !at(k).Less(id) })
}

// Floor returns the index of the largest identifier <= dst in linear
// order, or -1 when every one is above dst.
func Floor(n int, at func(int) *ID, dst ID) int {
	return sort.Search(n, func(k int) bool { return dst.Less(*at(k)) }) - 1
}

// Closest is Algorithm 2 over identifiers stored ascending: the index of
// the one closest to dst without overshooting it, for a packet at ring
// position cur. That is Floor, wrapping to the last element when dst
// precedes them all; since candidate ∈ (cur, dst] iff it is closer to
// dst than cur is, testing that one element for Progress decides the set.
func Closest(n int, at func(int) *ID, cur, dst ID) (int, bool) {
	if n == 0 {
		return 0, false
	}
	i := Floor(n, at, dst)
	if i < 0 {
		i = n - 1
	}
	return i, Progress(cur, dst, *at(i))
}
