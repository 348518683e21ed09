package ident

import "fmt"

// Handle is a dense 32-bit alias for an interned identifier. Routing
// state that would otherwise store full 128-bit IDs (successor groups,
// predecessor pointers, cache entries, packed source routes) stores
// handles instead — 4 bytes per pointer instead of 16 — and resolves
// them through the Intern table only when the actual label is needed
// (ring-distance comparisons, wire encoding, logs).
//
// Handles are assigned densely from 0 in first-intern order, so they
// double as indices into struct-of-arrays node state: state for the
// node with handle h lives at slot h of every parallel slice.
type Handle uint32

// NoHandle is the sentinel "no pointer" value, analogous to a nil
// Pointer. It is never assigned to an interned identifier.
const NoHandle = Handle(^uint32(0))

// Intern is an append-only table mapping identifiers to dense handles
// and back. It is the single source of truth for the ID⇄handle
// correspondence in a simulation: every subsystem that compacts its
// state onto handles shares one table, so a handle means the same
// identifier everywhere.
//
// The zero value is not usable; construct with NewIntern. Methods are
// not safe for concurrent mutation — intern everything up front (or
// from one goroutine), then share the table read-only across workers.
type Intern struct {
	ids  []ID
	byID map[ID]Handle
}

// NewIntern returns an empty table.
func NewIntern() *Intern { return NewInternSize(0) }

// NewInternSize returns an empty table with capacity for n identifiers
// pre-allocated, so interning n IDs performs no intermediate growth.
func NewInternSize(n int) *Intern {
	return &Intern{
		ids:  make([]ID, 0, n),
		byID: make(map[ID]Handle, n),
	}
}

// Handle returns the dense handle for id, assigning the next free one
// on first sight. It panics if the table would exceed 2^32-1 entries
// (the NoHandle sentinel must stay unused).
func (t *Intern) Handle(id ID) Handle {
	if h, ok := t.byID[id]; ok {
		return h
	}
	h := Handle(len(t.ids))
	if h == NoHandle {
		panic("ident: intern table full")
	}
	t.ids = append(t.ids, id)
	t.byID[id] = h
	return h
}

// Lookup returns the handle for id without assigning one.
func (t *Intern) Lookup(id ID) (Handle, bool) {
	h, ok := t.byID[id]
	return h, ok
}

// ID resolves a handle back to its identifier. It panics on NoHandle or
// an out-of-range handle — both indicate corrupted routing state, never
// valid protocol input.
func (t *Intern) ID(h Handle) ID {
	if int(h) >= len(t.ids) {
		panic(fmt.Sprintf("ident: handle %d out of range (table has %d)", h, len(t.ids)))
	}
	return t.ids[h]
}

// IDs returns the table's own ID slab, by handle; callers only read it.
func (t *Intern) IDs() []ID { return t.ids }

// Len returns the number of interned identifiers; handles 0..Len()-1
// are valid.
func (t *Intern) Len() int { return len(t.ids) }

// Bytes estimates the table's resident size: the dense ID slab plus the
// reverse map (entry payload + amortized bucket overhead). Memory
// accounting in the scaling study charges this once per simulation, not
// per node pointer — that is the entire point of interning.
func (t *Intern) Bytes() int {
	const mapOverheadPerEntry = 16 // bucket headers + padding, amortized
	return cap(t.ids)*Size + len(t.byID)*(Size+4+mapOverheadPerEntry)
}
