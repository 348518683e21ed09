package ident

import (
	"iter"
	"math/bits"
	"slices"
	"sort"
)

// Columns holds identifiers ascending, each with a value, as two columns:
// the high words in one dense slice, all a search reads until one ties
// the target's, and the low words beside the values.
type Columns[V any] struct {
	hi   []uint64
	rest []Cell[V]
}

// Cell is one identifier's low word and value, the column beside the high
// words. Callers only name it to size storage for ColumnsIn.
type Cell[V any] struct {
	lo  uint64
	val V
}

// ColumnsIn returns empty columns that fill hi and rest in place, growing
// out of them only past min(len(hi), len(rest)) identifiers: a caller
// that declares both arrays in one struct makes the columns one
// allocation.
func ColumnsIn[V any](hi []uint64, rest []Cell[V]) Columns[V] {
	return Columns[V]{hi[:0], rest[:0]}
}

// Len returns the number of identifiers held.
func (c *Columns[V]) Len() int { return len(c.hi) }

// Cap returns how many identifiers the columns hold before Insert grows
// them.
func (c *Columns[V]) Cap() int { return min(cap(c.hi), cap(c.rest)) }

// At returns the i-th identifier and its value.
func (c *Columns[V]) At(i int) (ID, V) { return u128{c.hi[i], c.rest[i].lo}.id(), c.rest[i].val }

// Val returns the i-th value in place, for a caller to read or update.
func (c *Columns[V]) Val(i int) *V { return &c.rest[i].val }

// All yields each index and value in ascending identifier order.
func (c *Columns[V]) All() iter.Seq2[int, V] {
	return func(yield func(int, V) bool) {
		for i := range c.rest {
			if !yield(i, c.rest[i].val) {
				return
			}
		}
	}
}

// Key is an identifier decoded to the words a column search compares: a
// caller searching several tables for one identifier decodes it once.
type Key struct{ w u128 }

// Key decodes id for Find.
func (id ID) Key() Key { return Key{id.words()} }

// Floor is Floor over the columns, with dst decoded once and no call per
// probe: a probe halves the range by arithmetic on a borrow, not by a
// branch on the word it read, and only a tie on dst's high word reads low words.
func (c *Columns[V]) Floor(dst ID) int { return c.floor(dst.words()) }

// Find returns the Floor of the identifier k decodes and whether the
// identifier there is that one.
func (c *Columns[V]) Find(k Key) (int, bool) {
	i := c.floor(k.w)
	return i, i >= 0 && c.hi[i] == k.w.hi && c.rest[i].lo == k.w.lo
}

func (c *Columns[V]) floor(w u128) int {
	base, n := 0, len(c.hi)
	for n > 1 {
		half := n >> 1
		_, above := bits.Sub64(w.hi, c.hi[base+half], 0) // 1 iff that word is above the target's
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
	c.hi, c.rest = append(c.hi, 0), append(c.rest, Cell[V]{})
	copy(c.hi[i+1:], c.hi[i:])
	copy(c.rest[i+1:], c.rest[i:])
	c.hi[i], c.rest[i] = w.hi, Cell[V]{w.lo, v}
}

// Rekey replaces the i-th identifier with id, keeping its value; id must
// keep the columns ascending.
func (c *Columns[V]) Rekey(i int, id ID) {
	w := id.words()
	c.hi[i], c.rest[i].lo = w.hi, w.lo
}

// Delete removes the i-th identifier and its value.
func (c *Columns[V]) Delete(i int) {
	c.hi, c.rest = slices.Delete(c.hi, i, i+1), slices.Delete(c.rest, i, i+1)
}

// Split moves the identifiers from index i on to the end of to, whose
// own must all precede them, and returns how many it moved.
func (c *Columns[V]) Split(i int, to *Columns[V]) int {
	moved := len(c.hi) - i
	to.hi, to.rest = append(to.hi, c.hi[i:]...), append(to.rest, c.rest[i:]...)
	clear(c.rest[i:]) // drop the moved values' references
	c.hi, c.rest = c.hi[:i], c.rest[:i]
	return moved
}
