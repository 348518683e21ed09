package ident

import (
	"slices"
	"testing"
)

// colID spells an identifier in one byte: its high and low words each
// one of 0, 1, 2^63 and 2^64-1, so a few bytes make rings whose high
// words tie, hold duplicates and sit at both ends of the word range.
func colID(b byte) ID {
	words := [4]uint64{0, 1, 1 << 63, ^uint64(0)}
	return u128{words[b&3], words[b>>2&3]}.id()
}

// FuzzColumnsMatchFloor holds Columns to Floor over a plain []ID built
// from the same inserts, each placed after the identifiers at or below
// it: every identifier and value read back, and the floor of every
// identifier the alphabet spells (the target among them), before and
// after deleting the member the target picks. Then the target picks a
// split point: Split moves the tail into columns on caller storage of
// four, the inserts are replayed into whichever half each belongs to,
// growing that storage, and the upper half's first member is rekeyed to
// the smallest identifier still above the lower half.
func FuzzColumnsMatchFloor(f *testing.F) {
	f.Add([]byte{}, byte(0))                            // empty ring
	f.Add([]byte{5}, byte(5))                           // one member, the target itself
	f.Add([]byte{5}, byte(9))                           // one member, the target after it
	f.Add([]byte{1, 5, 9, 13}, byte(9))                 // one high word, four low words
	f.Add([]byte{6, 6, 6, 2, 14}, byte(6))              // duplicates of the target
	f.Add([]byte{15, 0, 12, 3, 7, 11}, byte(4))         // both ends of both words
	f.Add([]byte{3, 8, 1, 12, 6, 9, 14, 2}, byte(0x52)) // split in the middle
	f.Fuzz(func(t *testing.T, data []byte, target byte) {
		c, ref := modelColumns{}, modelColumns{}
		for v, b := range data {
			c.insert(colID(b), v)
			ref.insertRef(colID(b), v)
		}
		c.check(t, "inserted", &ref)
		if len(ref.ids) > 0 {
			i := int(target) % len(ref.ids)
			c.cols.Delete(i)
			ref.ids, ref.vals = slices.Delete(ref.ids, i, i+1), slices.Delete(ref.vals, i, i+1)
			c.check(t, "deleted", &ref)
		}
		var hi [4]uint64
		var rest [4]Cell[int]
		up := modelColumns{cols: ColumnsIn(hi[:], rest[:])}
		i := int(target>>4) % (len(ref.ids) + 1)
		if moved := c.cols.Split(i, &up.cols); moved != len(ref.ids)-i {
			t.Fatalf("Split(%d) moved %d of %d", i, moved, len(ref.ids))
		}
		refUp := modelColumns{ids: slices.Clone(ref.ids[i:]), vals: slices.Clone(ref.vals[i:])}
		ref.ids, ref.vals = ref.ids[:i], ref.vals[:i]
		c.check(t, "split, lower", &ref)
		up.check(t, "split, upper", &refUp)
		for v, b := range data {
			id := colID(b)
			if len(refUp.ids) > 0 && !id.Less(refUp.ids[0]) {
				up.insert(id, v)
				refUp.insertRef(id, v)
			} else {
				c.insert(id, v)
				ref.insertRef(id, v)
			}
		}
		c.check(t, "replayed, lower", &ref)
		up.check(t, "replayed, upper", &refUp)
		for b := range byte(16) {
			id := colID(b)
			if len(refUp.ids) > 0 && !refUp.ids[0].Less(id) && (len(ref.ids) == 0 || ref.ids[len(ref.ids)-1].Less(id)) {
				up.cols.Rekey(0, id)
				refUp.ids[0] = id
				up.check(t, "rekeyed", &refUp)
				break
			}
		}
	})
}

// modelColumns is Columns under test, or its reference: a plain []ID
// with the values beside it.
type modelColumns struct {
	cols Columns[int]
	ids  []ID
	vals []int
}

func (m *modelColumns) insert(id ID, v int) { m.cols.Insert(m.cols.Floor(id)+1, id, v) }

func (m *modelColumns) insertRef(id ID, v int) {
	i := Floor(len(m.ids), func(k int) *ID { return &m.ids[k] }, id) + 1
	m.ids, m.vals = slices.Insert(m.ids, i, id), slices.Insert(m.vals, i, v)
}

// check holds m's columns to ref: every identifier and value read back
// through At, Val and All, and Floor and Find of every identifier the
// alphabet spells.
func (m *modelColumns) check(t *testing.T, stage string, ref *modelColumns) {
	t.Helper()
	c := &m.cols
	if c.Len() != len(ref.ids) {
		t.Fatalf("%s: Len %d, reference %d", stage, c.Len(), len(ref.ids))
	}
	for i := range ref.ids {
		if id, v := c.At(i); id != ref.ids[i] || v != ref.vals[i] || *c.Val(i) != v {
			t.Fatalf("%s: At(%d) = %s %d, reference %s %d", stage, i, id, v, ref.ids[i], ref.vals[i])
		}
	}
	for i, v := range c.All() {
		if v != ref.vals[i] {
			t.Fatalf("%s: All yields %d at %d, reference %d", stage, v, i, ref.vals[i])
		}
	}
	for b := range byte(16) {
		id := colID(b)
		want := Floor(len(ref.ids), func(k int) *ID { return &ref.ids[k] }, id)
		if got := c.Floor(id); got != want {
			t.Fatalf("%s: Floor(%s) = %d, reference %d", stage, id, got, want)
		}
		if got, ok := c.Find(id.Key()); got != want || ok != (want >= 0 && ref.ids[want] == id) {
			t.Fatalf("%s: Find(%s) = %d %v, reference floor %d", stage, id, got, ok, want)
		}
	}
}
