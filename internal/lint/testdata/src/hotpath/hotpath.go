// Corpus for the hotpath analyzer: allocation sites reachable from
// //rofllint:hotpath roots, coldpath pruning, annotation hygiene, and
// the audited-ignore path.
package hotpath

import (
	"fmt"
	"sort"
	"strconv"
)

type buf struct{ b []byte }

type holder struct {
	fn func()
	at func(int) int
}

type sink interface{ Write([]byte) (int, error) }

// root is a hot-path root: everything it reaches is scanned.
//
//rofllint:hotpath
func root(dst []byte, vals []int) int {
	total := 0
	for _, v := range vals {
		total += v
	}
	helper(dst) // reachable: helper is scanned even without an annotation
	control(dst)
	return total
}

// helper has no annotation of its own but is reachable from root.
func helper(dst []byte) {
	_ = make([]byte, 16) // want "make allocates in hot function helper"
	dst = dst[:0]
	_ = dst
}

// control is dispatched off the steady-state path, so reachability is
// pruned here and its allocations are fine.
//
//rofllint:coldpath control-plane handling dispatched once per join, not per packet
func control(dst []byte) {
	_ = make([]byte, 1<<10)
	_ = fmt.Sprintf("%d", len(dst))
}

//rofllint:hotpath
func allocSites(s string) {
	_ = &buf{}           // want "address of composite literal escapes to the heap in hot function allocSites"
	_ = []int{1, 2, 3}   // want "slice literal allocates a new backing array in hot function allocSites"
	_ = map[string]int{} // want "map literal allocates in hot function allocSites"
	_ = new(buf)         // want "new allocates in hot function allocSites"
	_ = append([]byte(nil), s...) // want "append to a fresh slice allocates a new backing array in hot function allocSites"
	x := s + "!" // want "string concatenation allocates in hot function allocSites"
	_ = x
	fmt.Println(s) // want "fmt.Println formats through interfaces and allocates in hot function allocSites"
	b := []byte(s) // want "conversion between string and byte slice copies and allocates in hot function allocSites"
	_ = b
	_ = strconv.Itoa(3) // want "call into strconv.Itoa in hot function allocSites is outside the allocation-free allowlist"
}

//rofllint:hotpath
func reuseOK(dst []byte, xs []int) []byte {
	// Appending to an existing buffer and in-place sort/search are the
	// sanctioned steady-state idioms.
	dst = append(dst, 0x01)
	i := sort.SearchInts(xs, 3)
	_ = i
	return dst
}

//rofllint:hotpath
func spawn() {
	go leak() // want "go statement in hot function spawn allocates a goroutine per call"
}

func leak() {}

//rofllint:hotpath
func ifaceCall(s sink, b []byte) {
	s.Write(b) // want "interface method call Write in hot function ifaceCall dispatches dynamically and cannot be proven allocation-free"
}

//rofllint:hotpath
func dynCall(f func()) {
	f() // want "dynamic call through a function value in hot function dynCall cannot be proven allocation-free"
}

// search calls its accessor parameter: transparent in a non-root helper,
// because viaParam's call sites vouch for what they pass.
func search(n int, at func(int) int) int { return at(n - 1) }

func double(k int) int { return 2 * k }

//rofllint:hotpath
func viaParam(xs []int, h *holder) int {
	a := search(len(xs), func(k int) int { return xs[k] }) // fine: literal scanned in place
	b := search(len(xs), double)                            // fine: declared function, in the graph
	c := search(len(xs), h.at)                              // want "function value passed on in hot function viaParam is neither a literal nor a declared function; its body cannot be proven allocation-free"
	return a + b + c
}

//rofllint:hotpath
func localLit(vals []int) int {
	best := 0
	consider := func(v int) {
		if v > best {
			best = v
		}
	}
	for _, v := range vals {
		consider(v) // fine: the literal's body is scanned inline
	}
	return best
}

//rofllint:hotpath
func escapes(h *holder) {
	h.fn = func() {} // want "closure stored beyond the call allocates in hot function escapes"
}

// errExempt allocates only while constructing a returned error, which
// is off the steady-state path by definition.
//
//rofllint:hotpath
func errExempt(n int) error {
	if n < 0 {
		return fmt.Errorf("negative: %d", n)
	}
	return nil
}

//rofllint:hotpath
func audited() {
	buf := make([]byte, 64) //rofllint:ignore hotpath one-time setup buffer, reused across loop iterations
	_ = buf
}

//rofllint:coldpath
func badCold() {} // want "coldpath annotation without a reason: say why badCold is off the steady-state path"

//rofllint:hotpath
//rofllint:coldpath hot in tests, cold in production
func conflicted() {} // want "conflicted is annotated both hotpath and coldpath; pick one"
