package ident

import (
	"strings"
	"testing"
)

// TestCheckRingPlantedFaults plants each fault ring pointers can hold on
// a consistent ring, its members stored in descending identifier order
// so the check must sort them: the check must name the broken pointer,
// and a successor group longer or shorter than the next three members
// must lower the exact count without a fault. The zero ID stands for no
// predecessor.
func TestCheckRingPlantedFaults(t *testing.T) {
	const group = 3
	type ring struct {
		ids, preds []ID
		succs      [][]ID
	}
	build := func(n int) ring { // member i holds 10(n-i); its successor is member i-1
		r := ring{make([]ID, n), make([]ID, n), make([][]ID, n)}
		for i := range n {
			r.ids[i] = id64(uint64(10 * (n - i)))
		}
		for i := range n {
			for k := 1; k <= max(min(group, n-1), 1); k++ {
				r.succs[i] = append(r.succs[i], r.ids[(i-k%n+n)%n])
			}
			r.preds[i] = r.ids[(i+1)%n]
		}
		return r
	}
	cases := []struct {
		name     string
		n, exact int
		fault    string // "" for none
		plant    func(r ring)
	}{
		{"consistent", 6, 6, "", func(ring) {}},
		{"adjacent successors swapped", 6, 5, "has successor", func(r ring) { s := r.succs[2]; s[0], s[1] = s[1], s[0] }},
		{"predecessor dropped", 6, 6, "has predecessor none", func(r ring) { r.preds[4] = ID{} }},
		{"predecessor past its neighbour", 6, 6, "has predecessor", func(r ring) { r.preds[4] = r.ids[0] }},
		{"successor group short", 6, 5, "", func(r ring) { r.succs[1] = r.succs[1][:2] }},
		{"successor group long", 6, 5, "", func(r ring) { r.succs[1] = append(r.succs[1], r.ids[3]) }},
		{"one member, itself", 1, 1, "", func(r ring) { r.preds[0] = ID{} }}, // a lone member's predecessor is not read
		{"one member, no successor", 1, 0, "has successor none", func(r ring) { r.succs[0] = nil }},
		{"two members", 2, 2, "", func(ring) {}},
		{"two members, predecessor is self", 2, 2, "has predecessor", func(r ring) { r.preds[0] = r.ids[0] }},
		{"empty", 0, 0, "", func(ring) {}},
	}
	for _, c := range cases {
		r := build(c.n)
		c.plant(r)
		exact, err := CheckRing(c.n, group, func(i int) ID { return r.ids[i] }, func(id ID) ID { return id },
			func(i int) []ID { return r.succs[i] }, func(i int) (ID, bool) { return r.preds[i], r.preds[i] != ID{} })
		if c.fault == "" && err != nil || c.fault != "" && (err == nil || !strings.Contains(err.Error(), c.fault)) {
			t.Errorf("%s: got %v, want fault %q", c.name, err, c.fault)
		}
		if exact != c.exact {
			t.Errorf("%s: %d exact groups, want %d", c.name, exact, c.exact)
		}
	}
}
