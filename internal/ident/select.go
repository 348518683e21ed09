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
func Closer(dst, a, b ID) bool {
	return a.Distance(dst).Cmp(b.Distance(dst)) < 0
}

// Scan is Algorithm 2 over a stream of candidates: Offer each one in
// precedence order (ring pointers before cache entries, §2.2) and read
// the winner from Best. A candidate must make legal Progress from cur;
// a strictly closer one displaces the incumbent and a tie keeps it,
// which is what gives earlier offers precedence.
type Scan struct {
	cur, dst ID
	best     ID
	left     ID // best's remaining distance to dst
	found    bool
}

// NewScan starts a selection for a packet at ring position cur heading
// for dst.
func NewScan(cur, dst ID) Scan { return Scan{cur: cur, dst: dst} }

// Offer presents one candidate and reports whether it became the
// incumbent, so callers can keep their own payload in step.
func (s *Scan) Offer(c ID) bool {
	if !Progress(s.cur, s.dst, c) {
		return false
	}
	left := c.Distance(s.dst)
	if s.found && left.Cmp(s.left) >= 0 {
		return false
	}
	s.best, s.left, s.found = c, left, true
	return true
}

// Best returns the incumbent and whether any candidate qualified.
func (s *Scan) Best() (ID, bool) { return s.best, s.found }

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
