package telemetry

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Strict mode is the runtime half of the metricname defense: after the
// namespace is closed, resolving a series name outside the catalog must
// panic instead of silently registering a dead series.
func TestRegistryStrictMode(t *testing.T) {
	reg := NewRegistry()
	pre := reg.Counter("rofl_test_pre_total") // registered before strict

	reg.SetStrict("rofl_test_allowed_total")

	// Catalog names and already-registered names stay resolvable.
	if got := reg.Counter("rofl_test_allowed_total"); got == nil {
		t.Fatal("catalog series must resolve in strict mode")
	}
	if got := reg.Counter("rofl_test_pre_total"); got != pre {
		t.Fatal("pre-registered series must keep resolving to the same handle")
	}

	// A name outside the closed namespace panics, for each kind.
	for _, resolve := range []func(){
		func() { reg.Counter("rofl_test_typo_total") },
		func() { reg.Gauge("rofl_test_typo_gauge") },
		func() { reg.Histogram("rofl_test_typo_seconds", nil) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("strict registry must panic on an unknown series name")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "strict registry resolved unknown series") {
					t.Fatalf("unexpected panic payload: %v", r)
				}
			}()
			resolve()
		}()
	}
}

// A non-strict registry must keep its get-or-create behavior: strict is
// opt-in, production wiring never panics.
func TestRegistryStrictModeIsOptIn(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("rofl_test_any_total") == nil {
		t.Fatal("non-strict registry must get-or-create freely")
	}
}

// Close must join the Serve goroutine: after Close returns, the
// acceptor must be gone. Regression test for the unjoined goroutine the
// former golifetime analyzer surfaced — under the cluster supervisor a leaked
// acceptor per node incarnation is an unbounded leak.
func TestServerCloseJoinsServeGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		srv, err := NewServer("127.0.0.1:0", NewRegistry(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for Serve to return, so no acceptor goroutines can
	// accumulate. Allow brief scheduler noise before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across Server lifecycles: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
