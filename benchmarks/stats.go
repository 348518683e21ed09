package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middle values for an
// even count). It sorts a copy.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// tailPercentile applies the percentile rule to a sample count: the tail
// reported under the catalogue's ".p99" names is the highest of p99 and
// p90 that still has at least ten samples beyond it. With fewer than 100
// samples neither qualifies and the maximum (100) is reported instead.
func tailPercentile(n int) float64 {
	for _, p := range []int{99, 90} {
		if n*(100-p)/100 >= 10 {
			return float64(p)
		}
	}
	return 100
}

// dist summarises per-operation timings.
type dist struct {
	N       int
	P50     float64
	Tail    float64 // value at TailPct
	TailPct float64
}

// summarize sorts vs in place and reads the median and the tail off it.
func summarize(vs []float64) dist {
	n := len(vs)
	if n == 0 {
		return dist{P50: math.NaN(), Tail: math.NaN()}
	}
	sort.Float64s(vs)
	pct := tailPercentile(n)
	beyond := int(float64(n) * (100 - pct) / 100)
	return dist{N: n, P50: vs[n/2], Tail: vs[n-1-beyond], TailPct: pct}
}

// span is one timed interval at a layer boundary. Spans of one packet
// share Trace (the packet's sequence number); Parent is the index of the
// span that caused this one, -1 at the root.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover. Children of one parent do not overlap (a hop
// has one send), so covered time is their sum, clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		if lo, hi := max(s.Start, p.Start), min(s.End, p.End); hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}
