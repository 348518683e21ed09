package ident

import (
	"math/bits"
	"slices"
	"sort"
)

// Columns holds identifiers ascending, each with a value, as two columns:
// the high words in one dense slice, all a search reads until one ties
// the target's, and the low words beside the values.
type Columns[V any] struct {
	hi   []uint64
	rest []lowWord[V]
}

type lowWord[V any] struct {
	lo  uint64
	val V
}

// Len returns the number of identifiers held.
func (c *Columns[V]) Len() int { return len(c.hi) }

// At returns the i-th identifier and its value.
func (c *Columns[V]) At(i int) (ID, V) { return u128{c.hi[i], c.rest[i].lo}.id(), c.rest[i].val }

// Floor is Floor over the columns, with dst decoded once and no call per
// probe: a probe halves the range by arithmetic on a borrow, not by a
// branch on the word it read, and only a tie on dst's high word reads low words.
func (c *Columns[V]) Floor(dst ID) int {
	w := dst.words()
	base, n := 0, len(c.hi)
	for n > 1 {
		half := n >> 1
		_, above := bits.Sub64(w.hi, c.hi[base+half], 0) // 1 iff that word is above dst's
		base += half & int(above-1)
		n -= half
	}
	if n == 1 && c.hi[base] <= w.hi {
		base++
	}
	if base > 0 && c.hi[base-1] == w.hi && c.rest[base-1].lo > w.lo {
		base = sort.Search(base, func(k int) bool { return c.hi[k] == w.hi && c.rest[k].lo > w.lo })
	}
	return base - 1
}

// Insert places id with its value at index i, which must keep the columns
// ascending (Floor(id)+1 does); append and copy beat slices.Insert here.
func (c *Columns[V]) Insert(i int, id ID, v V) {
	w := id.words()
	c.hi, c.rest = append(c.hi, 0), append(c.rest, lowWord[V]{})
	copy(c.hi[i+1:], c.hi[i:])
	copy(c.rest[i+1:], c.rest[i:])
	c.hi[i], c.rest[i] = w.hi, lowWord[V]{w.lo, v}
}

// Delete removes the i-th identifier and its value.
func (c *Columns[V]) Delete(i int) {
	c.hi, c.rest = slices.Delete(c.hi, i, i+1), slices.Delete(c.rest, i, i+1)
}
