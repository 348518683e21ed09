// Package telemetry is the observability substrate of the live ROFL
// deployment: a dependency-free registry of counters with lock-free
// hot-path updates, a structured JSON event log with an injectable
// clock, and a per-node HTTP endpoint exposing Prometheus-format
// metrics, a ring snapshot, and a health probe.
//
// The registry is built for the overlay's forwarding hot path: a metric
// handle is looked up (or created) once at wiring time and then updated
// with a single atomic add — no map access, no lock, and no allocation
// per operation. Handles are nil-safe: a nil *Counter ignores Inc/Add,
// so instrumented code needs no "is telemetry attached?" branches.
//
// Rendering is deterministic: the registry keeps its series in sorted
// order at registration time (never iterating a Go map), so two scrapes
// of identical state are byte-identical — the property the cluster
// supervisor's reproducibility tests lean on.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value
// is ready to use; all methods are safe on a nil receiver so
// instrumented hot paths need no attachment checks.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry holds named metric series. Series names follow the
// Prometheus convention and may carry a label suffix baked into the
// name, e.g. `rofl_overlay_drop_total{reason="ttl"}`; the text before
// the first '{' is the metric family the # TYPE header is emitted for.
//
// Lookup is get-or-create and returns the same handle for the same
// name, so two subsystems naming the same series share one counter.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	// names holds every registered series key in sorted order,
	// maintained at registration so rendering never iterates a map
	// (deterministic output).
	names []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// insertName records key in sorted order. Caller holds r.mu.
func (r *Registry) insertName(key string) {
	i := sort.SearchStrings(r.names, key)
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = key
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = new(Counter)
	r.counters[name] = c
	r.insertName(name)
	return c
}

// family returns a series key's metric family: the text before any
// label suffix, the subject of the # TYPE header.
func family(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format, in sorted series order with one # TYPE line
// per metric family. Output for identical registry state is
// byte-identical across runs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	keys := append([]string(nil), r.names...)
	r.mu.RUnlock()
	lastFamily := ""
	for _, key := range keys {
		base := family(key)
		r.mu.RLock()
		c := r.counters[key]
		r.mu.RUnlock()
		if base != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", base); err != nil {
				return err
			}
			lastFamily = base
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", key, c.Value()); err != nil {
			return err
		}
	}
	return nil
}
