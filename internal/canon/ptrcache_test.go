package canon

import (
	"testing"

	"rofl/internal/ident"
	"rofl/internal/vring"
)

// The AS-granularity cache is vring.PointerCache with the AS number in
// the router field. These tests pin the behaviour canon relies on
// through that mapping (cachePointer in, ptrOf out): in-place
// update, exact-LRU eviction, the no-progress miss, removal by
// identifier and by AS, and the disabled zero-capacity cache.

func id64(v uint64) ident.ID { return ident.FromUint64(v) }

func lookupPtr(c *vring.PointerCache, pos, dst ident.ID) (Ptr, bool) {
	p, ok := c.Lookup(pos, dst)
	return ptrOf(p), ok
}

func TestPtrCacheInsertLookupEvict(t *testing.T) {
	c := vring.NewPointerCache(3)
	c.Insert(cachePointer(Ptr{ID: id64(10), AS: 1}))
	c.Insert(cachePointer(Ptr{ID: id64(20), AS: 2}))
	c.Insert(cachePointer(Ptr{ID: id64(30), AS: 3}))
	// Update in place.
	c.Insert(cachePointer(Ptr{ID: id64(10), AS: 9}))
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	p, ok := lookupPtr(c, id64(0), id64(15))
	if !ok || p.ID != id64(10) || p.AS != 9 {
		t.Fatalf("lookup = %+v ok=%v", p, ok)
	}
	// Insert at capacity evicts the LRU (20: untouched longest).
	c.Insert(cachePointer(Ptr{ID: id64(40), AS: 4}))
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, ok := lookupPtr(c, id64(15), id64(25)); ok {
		t.Fatal("20 should have been evicted")
	}
}

func TestPtrCacheNoProgressMiss(t *testing.T) {
	c := vring.NewPointerCache(4)
	c.Insert(cachePointer(Ptr{ID: id64(10), AS: 1}))
	if _, ok := lookupPtr(c, id64(15), id64(20)); ok {
		t.Fatal("entry behind the position must not hit")
	}
	if _, ok := lookupPtr(vring.NewPointerCache(4), id64(0), id64(5)); ok {
		t.Fatal("empty cache cannot hit")
	}
}

func TestPtrCacheRemove(t *testing.T) {
	c := vring.NewPointerCache(4)
	c.Insert(cachePointer(Ptr{ID: id64(10), AS: 1}))
	c.Insert(cachePointer(Ptr{ID: id64(20), AS: 2}))
	c.Remove(id64(10))
	c.Remove(id64(99)) // absent
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if got := c.RemoveRouter(vring.RouterID(2)); got != 1 {
		t.Fatalf("RemoveRouter = %d", got)
	}
	if c.Len() != 0 {
		t.Fatal("cache should be empty")
	}
}

func TestPtrCacheZeroCapacity(t *testing.T) {
	c := vring.NewPointerCache(0)
	c.Insert(cachePointer(Ptr{ID: id64(1), AS: 1}))
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache must stay empty")
	}
}
