// Package bloom implements the Bloom filters ROFL's interdomain design
// uses at border routers: an AS summarizes the set of host identifiers
// joined below it in the hierarchy so that (a) peering links can be used
// only for traffic actually destined to a peer's customer, with
// backtracking on false positives, and (b) pointer caches can be
// consulted without violating the isolation property (paper §4.1–4.2).
package bloom

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Filter is a classic Bloom filter over byte-slice keys. It uses
// Kirsch–Mitzenmacher double hashing over two FNV-1a digests, which keeps
// insertion and lookup allocation-free after construction.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    uint   // number of hash functions
}

// newFilter creates a filter with m bits and k hash functions. m is rounded up
// to a multiple of 64; m and k must be positive.
func newFilter(m uint64, k uint) *Filter {
	if m == 0 || k == 0 {
		panic("bloom: m and k must be positive")
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, k: k}
}

// NewForCapacity sizes a filter for n expected keys at the target false
// positive rate p, using the standard m = -n·ln(p)/ln(2)² and
// k = (m/n)·ln(2) formulas. The paper trades filter size against false
// positive (backtracking) rate the same way (§2.3: "the size of bloom
// filters can be traded off against the false positive rate").
func NewForCapacity(n int, p float64) *Filter {
	if n <= 0 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("bloom: false-positive rate %v out of (0,1)", p))
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	k := uint(math.Round(float64(m) / float64(n) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return newFilter(m, k)
}

func (f *Filter) hashes(key []byte) (uint64, uint64) {
	h1 := fnv.New64a()
	h1.Write(key)
	a := h1.Sum64()
	h2 := fnv.New64a()
	var salt [8]byte
	binary.BigEndian.PutUint64(salt[:], a)
	h2.Write(salt[:])
	h2.Write(key)
	b := h2.Sum64()
	if b == 0 {
		b = 0x9e3779b97f4a7c15 // avoid a degenerate stride
	}
	return a, b
}

// Add inserts key.
func (f *Filter) Add(key []byte) {
	a, b := f.hashes(key)
	for i := uint(0); i < f.k; i++ {
		idx := (a + uint64(i)*b) % f.m
		f.bits[idx/64] |= 1 << (idx % 64)
	}
}

// Contains reports whether key may have been inserted (false positives
// possible, false negatives not).
func (f *Filter) Contains(key []byte) bool {
	a, b := f.hashes(key)
	for i := uint(0); i < f.k; i++ {
		idx := (a + uint64(i)*b) % f.m
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBits returns the filter's size in bits — the per-AS state the
// paper reports (e.g. "74 Mbits of bloom filter state per AS", §6.4).
func (f *Filter) SizeBits() uint64 { return f.m }
