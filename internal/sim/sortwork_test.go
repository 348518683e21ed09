package sim_test

import (
	"math/bits"
	"sync"
	"testing"

	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// sortWork totals the runs a Run hands to sortSlots.
type sortWork struct {
	mu                    sync.Mutex
	runs, events, largest int
	work                  int // Σ n·bits.Len(n) over the runs
}

func (w *sortWork) add(n int) {
	w.mu.Lock()
	w.runs++
	w.events += n
	w.largest = max(w.largest, n)
	w.work += n * bits.Len(uint(n))
	w.mu.Unlock()
}

// TestCompactRunSortWork pins what reading each window one affinity
// group at a time saves: a 10k-host compact ring's Run hands sortSlots
// one run per router and window, so its largest run and its sort work
// per event are bounded at 1, 2 and 8 shards. Every event of the run is
// read from a bucket (vring.TestCompactRunBucketsEveryEvent pins its
// overflow at 0), so the runs' lengths sum to the events handled.
// Read the whole window as one run and the largest run is every event
// of a window, and the work per event rises with its log.
func TestCompactRunSortWork(t *testing.T) {
	const maxLargest, maxPerEvent = 14, 2.57
	isp := topology.GenISP(topology.AS1221)
	cfg := vring.DefaultCompactConfig()
	cfg.EphemeralEvery = 100
	for _, shards := range []int{1, 2, 8} {
		cfg.Shards = shards
		var w sortWork
		r := vring.NewCompactRing(isp, cfg)
		restore := sim.SetTestHookSortRun(w.add)
		r.Run()
		restore()
		perEvent := float64(w.work) / float64(w.events)
		t.Logf("%d shards: %d runs over %d events, largest %d, Σ n·bits.Len(n) %.4f per event",
			shards, w.runs, w.events, w.largest, perEvent)
		if w.events == 0 || w.largest > maxLargest || perEvent > maxPerEvent {
			t.Errorf("%d shards: largest run %d (bound %d), %.2f sort work per event (bound %.2f)",
				shards, w.largest, maxLargest, perEvent, maxPerEvent)
		}
	}
}
