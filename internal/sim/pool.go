package sim

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0), fn(1), ..., fn(n-1) across at most workers
// goroutines and returns when all calls have completed. workers <= 1 (or
// n <= 1) runs every call serially on the calling goroutine, reproducing
// single-threaded execution bit for bit.
//
// Trials must be independent: fn may not assume any ordering between
// indices, and any state it touches must be private to the index (its
// own Metrics sink, its own RNG seeded via TrialSeed). Results should be
// written into index-addressed slots so the caller can assemble them
// deterministically afterwards, reading the slots in index order.
//
// A panic inside any trial is captured and re-raised on the calling
// goroutine after the remaining workers drain, matching the serial
// failure mode of the experiment drivers.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  interface{}
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicV == nil {
								panicV = r
							}
							panicMu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// TrialSeed derives the RNG seed for one trial of a multi-trial
// experiment from the experiment's base seed: base*1e6 + trial. Every
// trial seeds its own rand.Rand from this at trial start, so results
// depend only on (base, trial) — never on which worker ran the trial or
// in what order — and the same configuration reproduces byte-identical
// tables at any worker count.
//
// Paired arms of a comparison (a baseline simulated against ROFL on the
// same topology, or join strategies racing over the same workload) share
// the trial index of their group so both sides see the identical
// workload sequence.
func TrialSeed(base int64, trial int) int64 {
	return base*1_000_000 + int64(trial)
}
