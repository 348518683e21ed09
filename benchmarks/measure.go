package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // getrusage(RUSAGE_SELF) cannot fail with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapMB is the growth of the live heap since base, in MB. Whatever the
// round built must still be referenced by the caller. The floor keeps the
// metric positive when a round holds next to nothing.
func heapMB(base uint64) float64 {
	now := liveHeap()
	if now <= base {
		return 1.0 / (1 << 20)
	}
	return float64(now-base) / (1 << 20)
}

// phase measures one stretch of work: wall time, process CPU, and the
// allocations made meanwhile.
type phase struct {
	start   time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

type phaseCost struct {
	Wall, CPU     time.Duration
	Mallocs, Byte uint64
}

func beginPhase() phase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phase{start: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (p phase) end() phaseCost {
	wall, cpu := time.Since(p.start), cpuTime()-p.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseCost{Wall: wall, CPU: cpu, Mallocs: ms.Mallocs - p.mallocs, Byte: ms.TotalAlloc - p.bytes}
}

// segmentEvery is how much of a measured stretch one reading covers. A
// stretch is cut into segments, each read for rate and CPU cost on its
// own, and a run reports the median over all segments of all rounds: the
// shared boxes this runs on slow down for a few hundred milliseconds at a
// time, and a median over many short readings sheds such a stretch where
// a mean over the whole phase carries it.
const segmentEvery = 200 * time.Millisecond

// segments cuts one measured stretch into readings.
type segments struct {
	t    time.Time
	cpu  time.Duration
	ops  int64
	rate []float64 // operations per second
	cost []float64 // CPU microseconds per operation
}

func startSegments() *segments {
	return &segments{t: time.Now(), cpu: cpuTime()}
}

// tick is called with the operations completed so far, as often as the
// caller can afford a clock read; it closes a segment once one is due.
func (s *segments) tick(ops int64) {
	if now := time.Now(); now.Sub(s.t) >= segmentEvery {
		s.cut(now, ops)
	}
}

func (s *segments) cut(now time.Time, ops int64) {
	done := ops - s.ops
	if done <= 0 {
		return
	}
	cpu := cpuTime()
	s.rate = append(s.rate, float64(done)/now.Sub(s.t).Seconds())
	s.cost = append(s.cost, float64(cpu-s.cpu)/1e3/float64(done))
	s.t, s.cpu, s.ops = now, cpu, ops
}

// end closes the stretch. A tail shorter than half a segment is dropped
// unless it is all there is.
func (s *segments) end(ops int64) map[string][]float64 {
	if now := time.Now(); len(s.rate) == 0 || now.Sub(s.t) >= segmentEvery/2 {
		s.cut(now, ops)
	}
	return map[string][]float64{"ops_per_s": s.rate, "cpu_us_per_op": s.cost}
}

// opTimes keeps per-operation wall times, in nanoseconds, for the
// median a round reports. One store is allocated when the program starts
// and reused by every round, so it never counts as a round's heap; times
// beyond its capacity are dropped, which at the rates seen is never
// reached within a round.
type opTimes struct {
	ns []uint32
	n  atomic.Int64
}

var opStore = opTimes{ns: make([]uint32, 1<<21)}

func (t *opTimes) reset() { t.n.Store(0) }

// record is safe for concurrent use: the live collectors share the store.
func (t *opTimes) record(d time.Duration) {
	if i := t.n.Add(1) - 1; int(i) < len(t.ns) {
		t.ns[i] = uint32(min(d, time.Duration(^uint32(0))))
	}
}

// micros returns the recorded times in microseconds, sorted, as a dist.
func (t *opTimes) micros() dist {
	n := min(int(t.n.Load()), len(t.ns))
	us := make([]float64, n)
	for i, v := range t.ns[:n] {
		us[i] = float64(v) / 1e3
	}
	return summarize(us)
}
