package bloom

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewForCapacity(1000, 0.01)
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for %s", k)
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	f := newFilter(1<<12, 4)
	fn := func(key []byte) bool {
		f.Add(key)
		return f.Contains(key)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 5000
	target := 0.01
	f := NewForCapacity(n, target)
	for i := 0; i < n; i++ {
		f.Add([]byte(fmt.Sprintf("member-%d", i)))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Contains([]byte(fmt.Sprintf("non-member-%d", i))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > target*3 {
		t.Fatalf("false positive rate %.4f far above target %.4f", rate, target)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := newFilter(1024, 3)
	if f.Contains([]byte("anything")) {
		t.Fatal("empty filter must be empty")
	}
}

func TestSizeBitsRoundedUp(t *testing.T) {
	f := newFilter(100, 2)
	if f.SizeBits()%64 != 0 || f.SizeBits() < 100 {
		t.Fatalf("size = %d", f.SizeBits())
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { newFilter(0, 3) },
		func() { newFilter(100, 0) },
		func() { NewForCapacity(10, 0) },
		func() { NewForCapacity(10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid construction should panic")
				}
			}()
			fn()
		}()
	}
}

func TestNewForCapacityDegenerate(t *testing.T) {
	f := NewForCapacity(0, 0.01) // clamps n to 1
	f.Add([]byte("x"))
	if !f.Contains([]byte("x")) {
		t.Fatal("degenerate filter still works")
	}
}

func BenchmarkAdd(b *testing.B) {
	f := NewForCapacity(100000, 0.01)
	rng := rand.New(rand.NewSource(1))
	key := make([]byte, 16)
	rng.Read(key)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		f.Add(key)
	}
}

func BenchmarkContains(b *testing.B) {
	f := NewForCapacity(100000, 0.01)
	key := make([]byte, 16)
	for i := 0; i < 100000; i++ {
		key[0], key[1] = byte(i), byte(i>>8)
		f.Add(key)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		f.Contains(key)
	}
}
