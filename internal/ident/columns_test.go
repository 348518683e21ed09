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
// after deleting the member the target picks.
func FuzzColumnsMatchFloor(f *testing.F) {
	f.Add([]byte{}, byte(0))                    // empty ring
	f.Add([]byte{5}, byte(5))                   // one member, the target itself
	f.Add([]byte{5}, byte(9))                   // one member, the target after it
	f.Add([]byte{1, 5, 9, 13}, byte(9))         // one high word, four low words
	f.Add([]byte{6, 6, 6, 2, 14}, byte(6))      // duplicates of the target
	f.Add([]byte{15, 0, 12, 3, 7, 11}, byte(4)) // both ends of both words
	f.Fuzz(func(t *testing.T, data []byte, target byte) {
		var c Columns[int]
		var ref []ID
		var vals []int
		at := func(k int) *ID { return &ref[k] }
		for v, b := range data {
			id := colID(b)
			c.Insert(c.Floor(id)+1, id, v)
			i := Floor(len(ref), at, id) + 1
			ref, vals = slices.Insert(ref, i, id), slices.Insert(vals, i, v)
		}
		check := func(stage string) {
			t.Helper()
			if c.Len() != len(ref) {
				t.Fatalf("%s: Len %d, reference %d", stage, c.Len(), len(ref))
			}
			for i := range ref {
				if id, v := c.At(i); id != ref[i] || v != vals[i] {
					t.Fatalf("%s: At(%d) = %s %d, reference %s %d", stage, i, id, v, ref[i], vals[i])
				}
			}
			for b := range byte(16) {
				id := colID(b)
				if got, want := c.Floor(id), Floor(len(ref), at, id); got != want {
					t.Fatalf("%s: Floor(%s) = %d, reference %d", stage, id, got, want)
				}
			}
		}
		check("inserted")
		if len(ref) > 0 {
			i := int(target) % len(ref)
			c.Delete(i)
			ref, vals = slices.Delete(ref, i, i+1), slices.Delete(vals, i, i+1)
			check("deleted")
		}
	})
}
