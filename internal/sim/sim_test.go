package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// The scheduler contract below — time order, same-time FIFO, nested
// scheduling, the negative-delay clamp, run-to-run determinism — is
// pinned on ShardedEngine's one-shard (sequential) case with self-timers,
// which Prime, unlike Send, does not clamp to the lookahead, so they keep
// exact delays.

// timers primes one self-timer per delay on node 0 of a one-shard
// engine, Kind numbering them in priming order.
func timers(h Handler, delays ...Time) *ShardedEngine {
	e := NewSharded(1, 1, 1, nil, h)
	for i, d := range delays {
		e.Prime(d, Msg{Kind: uint16(i)})
	}
	return e
}

func TestScheduleOrdering(t *testing.T) {
	var got []uint16
	var last Time
	e := timers(handlerFunc(func(sc *ShardContext, m Msg) {
		got = append(got, m.Kind)
		last = sc.Now()
	}), 5, 1, 3)
	end := e.Run()
	if last != 5 || end < last {
		t.Fatalf("last event at %v, run ended at %v; want 5 and a barrier past it", last, end)
	}
	want := []uint16{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var got []uint16
	delays := make([]Time, 10)
	for i := range delays {
		delays[i] = 7
	}
	timers(handlerFunc(func(sc *ShardContext, m Msg) { got = append(got, m.Kind) }), delays...).Run()
	for i := range got {
		if got[i] != uint16(i) {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	depth := 0
	var last Time
	timers(handlerFunc(func(sc *ShardContext, m Msg) {
		depth++
		last = sc.Now()
		if depth < 5 {
			sc.Send(1, m)
		}
	}), 0).Run()
	if depth != 5 {
		t.Fatalf("depth = %d want 5", depth)
	}
	if last != 4 {
		t.Fatalf("last event at %v want 4", last)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	var at []Time
	timers(handlerFunc(func(sc *ShardContext, m Msg) {
		at = append(at, sc.Now())
		if len(at) == 1 {
			sc.Send(-10, m)
		}
	}), -10).Run()
	if len(at) != 2 || at[0] != 0 || at[1] != 1 {
		t.Fatalf("a negative delay should run at t=0 when primed and one lookahead past the sender's now when sent: %v", at)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a, _, endA := runToy(t, 37, 2, nil)
	b, _, endB := runToy(t, 37, 2, nil)
	if a != b || endA != endB {
		t.Fatal("same seed must produce identical traces")
	}
}

// Both name lists are collected from a map and sorted. The names go in
// out of order, so a list returned in map iteration order fails; `make
// test` also repeats the test twenty times, shuffled.
func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	m.Count("join", 3)
	m.Count("join", 2)
	m.Count("data", 1)
	if m.Counter("join") != 5 || m.Counter("data") != 1 || m.Counter("absent") != 0 {
		t.Fatalf("counters wrong: join=%d data=%d", m.Counter("join"), m.Counter("data"))
	}
	want := []string{"data", "evict", "hops", "join", "leave", "stale"}
	for _, name := range []string{"stale", "leave", "hops", "evict"} {
		m.Count(name, 1)
		m.Sample(name, 1)
	}
	m.Sample("join", 1)
	m.Sample("data", 1)
	if got := m.CounterNames(); !slices.Equal(got, want) {
		t.Fatalf("CounterNames = %v, want %v", got, want)
	}
	if got := m.SampleNames(); !slices.Equal(got, want) {
		t.Fatalf("SampleNames = %v, want %v", got, want)
	}
	m.Reset()
	if m.Counter("join") != 0 {
		t.Fatal("reset should clear counters")
	}
}

func TestMetricsSamples(t *testing.T) {
	m := NewMetrics()
	for _, v := range []float64{3, 1, 2} {
		m.Sample("lat", v)
	}
	if got := m.Samples("lat"); len(got) != 3 {
		t.Fatalf("samples = %v", got)
	}
	m.Reset()
	if m.Samples("lat") != nil {
		t.Fatal("reset should clear samples")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 != 2.5 {
		t.Fatalf("p50 = %v want 2.5", s.P50)
	}
	zero := Summarize(nil)
	if zero.N != 0 || zero.Mean != 0 {
		t.Fatalf("empty summary = %+v", zero)
	}
}

func TestQuantileBounds(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if Quantile(s, 0) != 1 || Quantile(s, 1) != 5 {
		t.Fatal("quantile endpoints wrong")
	}
	if got := Quantile(s, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		sort.Float64s(vs)
		a, b := math.Abs(math.Mod(q1, 1)), math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		return Quantile(vs, a) <= Quantile(vs, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Golden values pinning Quantile's linear interpolation between ranks
// (position q*(n-1), R-7), which its doc comment used to misname
// "nearest-rank".
func TestQuantileGoldenValues(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 55},   // position 4.5: halfway between 50 and 60
		{0.90, 91},   // position 8.1: 90*0.9 + 100*0.1
		{0.99, 99.1}, // position 8.91: 90*0.09 + 100*0.91
		{0.25, 32.5}, // position 2.25
		{0.10, 19},   // position 0.9
	} {
		if got := Quantile(s, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("Quantile(q=%.2f) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := Quantile([]float64{7}, 0.5); got != 7 {
		t.Fatalf("single-element quantile = %v", got)
	}
}

func TestMetricsMerge(t *testing.T) {
	a := NewMetrics()
	a.Count("join", 3)
	a.Sample("lat", 1)
	a.Sample("lat", 2)
	b := NewMetrics()
	b.Count("join", 4)
	b.Count("data", 1)
	b.Sample("lat", 3)
	b.Sample("stretch", 1.5)

	m := NewMetrics()
	m.Merge(a)
	m.Merge(b)
	if m.Counter("join") != 7 || m.Counter("data") != 1 {
		t.Fatalf("merged counters: join=%d data=%d", m.Counter("join"), m.Counter("data"))
	}
	if got := m.Samples("lat"); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("merged samples = %v, want stable concatenation [1 2 3]", got)
	}
	// Sources must be untouched.
	if len(a.Samples("lat")) != 2 || b.Counter("join") != 4 {
		t.Fatal("Merge must not modify its argument")
	}
}

// Merge is order-independent up to sample ordering: counter totals and
// sample multisets match regardless of which sink folds in first.
func TestMetricsMergeOrderIndependent(t *testing.T) {
	sinks := make([]Metrics, 3)
	for i := range sinks {
		sinks[i] = NewMetrics()
		for j := 0; j <= i; j++ {
			sinks[i].Count("msgs", int64(10*i+j))
			sinks[i].Sample("v", float64(100*i+j))
		}
	}
	fold := func(order []int) Metrics {
		m := NewMetrics()
		for _, i := range order {
			m.Merge(sinks[i])
		}
		return m
	}
	fwd, rev := fold([]int{0, 1, 2}), fold([]int{2, 1, 0})
	if fwd.Counter("msgs") != rev.Counter("msgs") {
		t.Fatalf("counter depends on merge order: %d vs %d", fwd.Counter("msgs"), rev.Counter("msgs"))
	}
	f := append([]float64(nil), fwd.Samples("v")...)
	r := append([]float64(nil), rev.Samples("v")...)
	sort.Float64s(f)
	sort.Float64s(r)
	if len(f) != len(r) {
		t.Fatalf("sample counts differ: %d vs %d", len(f), len(r))
	}
	for i := range f {
		if f[i] != r[i] {
			t.Fatalf("sample multisets differ at %d: %v vs %v", i, f, r)
		}
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.String() == "" {
		t.Fatal("String should render")
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	h := handlerFunc(func(*ShardContext, Msg) {})
	for i := 0; i < b.N; i++ {
		e := NewSharded(1, 1, 1, nil, h)
		for j := 0; j < 1000; j++ {
			e.Prime(Time(j%17), Msg{})
		}
		e.Run()
	}
}
