// Package telemetry is the observability substrate of the live ROFL
// deployment: a dependency-free metrics registry (counters, gauges,
// histograms with lock-free hot-path updates), a structured JSON event
// log with an injectable clock, and a per-node HTTP endpoint exposing
// Prometheus-format metrics, a ring snapshot, and a health probe.
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
	"math"
	"sort"
	"strconv"
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

// Gauge is a settable int64 metric. Like Counter, the zero value works
// and a nil receiver ignores updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates observations into fixed buckets with atomic
// updates: one atomic add for the bucket, one for the count, and a CAS
// loop folding the observation into the float64 sum. Bounds are upper
// bucket edges in ascending order; an implicit +Inf bucket catches the
// rest.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1, last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// newHistogram copies bounds (sorted ascending by the caller's
// contract; Registry.Histogram sorts defensively).
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample. Nil-safe and allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
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
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// names holds every registered series key in sorted order, each
	// tagged with its kind — maintained at registration so rendering
	// never iterates a map (deterministic output).
	names []seriesRef
}

type seriesRef struct {
	key  string
	kind uint8 // 0 counter, 1 gauge, 2 histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// insertName records key in sorted order. Caller holds r.mu.
func (r *Registry) insertName(key string, kind uint8) {
	i := sort.Search(len(r.names), func(k int) bool { return r.names[k].key >= key })
	r.names = append(r.names, seriesRef{})
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = seriesRef{key: key, kind: kind}
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
	r.insertName(name, 0)
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = new(Gauge)
	r.gauges[name] = g
	r.insertName(name, 1)
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (later calls reuse
// the existing buckets regardless of bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	r.insertName(name, 2)
	return h
}

// family splits a series key into its metric family (the # TYPE
// subject) and the label suffix, which may be empty.
func family(key string) (base, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// labeled splices an extra label (`le` for histogram buckets) into a
// series key that may or may not already carry labels.
func labeled(key, k, v string) string {
	base, labels := family(key)
	quoted := k + `="` + v + `"`
	if labels == "" {
		return base + "{" + quoted + "}"
	}
	return base + "{" + labels[1:len(labels)-1] + "," + quoted + "}"
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format, in sorted series order with one # TYPE line
// per metric family. Output for identical registry state is
// byte-identical across runs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	refs := append([]seriesRef(nil), r.names...)
	r.mu.RUnlock()
	lastFamily := ""
	for _, ref := range refs {
		base, _ := family(ref.key)
		switch ref.kind {
		case 0:
			r.mu.RLock()
			c := r.counters[ref.key]
			r.mu.RUnlock()
			if base != lastFamily {
				if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", base); err != nil {
					return err
				}
				lastFamily = base
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", ref.key, c.Value()); err != nil {
				return err
			}
		case 1:
			r.mu.RLock()
			g := r.gauges[ref.key]
			r.mu.RUnlock()
			if base != lastFamily {
				if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", base); err != nil {
					return err
				}
				lastFamily = base
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", ref.key, g.Value()); err != nil {
				return err
			}
		case 2:
			r.mu.RLock()
			h := r.hists[ref.key]
			r.mu.RUnlock()
			if base != lastFamily {
				if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
					return err
				}
				lastFamily = base
			}
			labels := ref.key[len(base):]
			cum := uint64(0)
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				bound := math.Inf(+1)
				if i < len(h.bounds) {
					bound = h.bounds[i]
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", labeled(base+"_bucket"+labels, "le", formatFloat(bound)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatFloat(h.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}
