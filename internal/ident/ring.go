package ident

import (
	"fmt"
	"slices"
)

// CheckRing is the repository's one check of the invariant every ROFL
// guarantee rests on (§3, Algorithm 1): each member's successor and
// predecessor pointers trace the sorted identifier order. Member i's
// own pointer is member(i), id reads a pointer's identifier, succs(i) is
// i's successor group and pred(i) its predecessor. P is what the ring's
// pointers hold (an ID, a handle, an ID with its host), compared whole.
//
// It sorts the members once and returns the first member whose
// successor[0] or predecessor is off sorted order as err, and as exact
// how many successor groups are exactly the next min(group, n-1)
// members: a measured share, not a fault. A one-member ring passes when
// its successor is itself.
func CheckRing[P comparable](n, group int, member func(i int) P, id func(P) ID,
	succs func(i int) []P, pred func(i int) (P, bool)) (exact int, err error) {
	ids, order := make([]ID, n), make([]int, n)
	for i := range order {
		ids[i], order[i] = id(member(i)), i
	}
	slices.SortFunc(order, func(a, b int) int { return ids[a].Cmp(ids[b]) })
	at := func(r int) P { return member(order[(r+n)%n]) }
	name := func(p P, ok bool) string {
		if !ok {
			return "none"
		}
		return id(p).Short()
	}
	want := max(min(group, n-1), 1) // a lone member's next member is itself
	for r, i := range order {
		g, k := succs(i), 0
		for k < len(g) && g[k] == at(r+1+k) {
			k++
		}
		if k == want && len(g) == want {
			exact++
		}
		if err == nil && k == 0 {
			var s P
			if len(g) > 0 {
				s = g[0]
			}
			err = fmt.Errorf("%s has successor %s, want %s", ids[i].Short(), name(s, len(g) > 0), name(at(r+1), true))
		}
		if p, ok := pred(i); err == nil && n > 1 && (!ok || p != at(r-1)) {
			err = fmt.Errorf("%s has predecessor %s, want %s", ids[i].Short(), name(p, ok), name(at(r-1), true))
		}
	}
	return exact, err
}
