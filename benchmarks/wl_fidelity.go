package main

import (
	"runtime"
	"time"

	"rofl/internal/canon"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// The full-fidelity simulators behind Figs 5-8: vring.Network inside one
// ISP and canon.Internet across ASes. Both are single-threaded; neither
// touches the event engine or the live path. Joins splice the ring and
// insert into pointer caches, routes walk the ring and look caches up, so
// a layout that favours one at the cost of the other shows on the
// workload of the other.

const (
	vringHosts     = 4000
	vringRouteList = 5000
	canonASHosts   = 1000
	canonHosts     = 3000
	canonRouteList = 1500
)

// fidelityPhase names the operation a fidelity round measures.
type fidelityPhase int

const (
	phaseJoin  fidelityPhase = iota // fixed work: join the last three quarters of the host list
	phaseRoute                      // timed: passes over the route list
	phaseSlice                      // a traced round: both, each call timed
)

// ringSim is the face the two simulators show the round: join the i-th
// host, route the i-th pair, empty the metric sink (so that neither the
// statistics nor the heap grow with the number of passes).
type ringSim interface {
	join(i int) (msgs int, err error)
	route(i int) (hops int, err error)
	resetMetrics()
	check() error
}

type vringSim struct {
	net    *vring.Network
	joins  []hostJoin
	routes []routeOp
}

func (s *vringSim) join(i int) (int, error) {
	res, err := s.net.JoinHost(s.joins[i].ID, topology.NodeID(s.joins[i].At))
	return res.Msgs, err
}

func (s *vringSim) route(i int) (int, error) {
	op := s.routes[i]
	res, err := s.net.Route(topology.NodeID(op.From), s.joins[op.To].ID)
	if err == nil && !res.Delivered {
		err = vring.ErrNoRoute
	}
	return res.Hops, err
}

func (s *vringSim) resetMetrics() { s.net.Metrics.Reset() }
func (s *vringSim) check() error  { return s.net.CheckRing() }

type canonSim struct {
	in     *canon.Internet
	joins  []hostJoin
	routes []routeOp
}

func (s *canonSim) join(i int) (int, error) {
	res, err := s.in.Join(s.joins[i].ID, topology.ASN(s.joins[i].At), canon.Multihomed)
	return res.Msgs, err
}

func (s *canonSim) route(i int) (int, error) {
	op := s.routes[i]
	res, err := s.in.Route(s.joins[op.From].ID, s.joins[op.To].ID)
	if err == nil && !res.Delivered {
		err = canon.ErrNoRoute
	}
	return res.ASHops, err
}

func (s *canonSim) resetMetrics() { s.in.Metrics.Reset() }
func (s *canonSim) check() error  { return s.in.CheckRings() }

// fidelityShape is what separates the vring rounds from the canon ones.
type fidelityShape struct {
	name       string // prefix of the exact statistics
	joinMetric string // per-layer names of the timed calls
	routeMetric,
	hopsMetric string
	// exactHops says the route list's hop total repeats exactly. canon's
	// does not: two Internets built from one seed in one process route the
	// same pairs over slightly different paths (see README, Observations).
	exactHops bool
	// build generates the topology and the empty simulator from the seed.
	build func(rc roundCtx, vals values) (sim ringSim, joins, routes int)
}

var vringShape = fidelityShape{
	name: "vring", joinMetric: "vring.network_join_us", routeMetric: "vring.network_route_us", hopsMetric: "vring.network_route_hops", exactHops: true,
	build: func(rc roundCtx, vals values) (ringSim, int, int) {
		isp := topology.GenISP(topology.AS1221)
		opts := vring.DefaultOptions()
		opts.Seed = rc.seed
		s := &vringSim{net: vring.New(isp.Graph, sim.NewMetrics(), opts)}
		s.joins = genVringJoins(rc.seed, isp, rc.size(vringHosts, 100))
		s.routes = genVringRoutes(rc.seed, isp, len(s.joins), rc.size(vringRouteList, 100))
		return s, len(s.joins), len(s.routes)
	},
}

var canonShape = fidelityShape{
	name: "canon", joinMetric: "canon.join_us", routeMetric: "canon.route_us", hopsMetric: "canon.route_as_hops",
	build: func(rc roundCtx, vals values) (ringSim, int, int) {
		gen := topology.DefaultASGen()
		gen.Hosts = canonASHosts
		start := time.Now()
		g := topology.GenAS(gen)
		vals["topology.gen_as_ms"] = float64(time.Since(start)) / 1e6
		opts := canon.DefaultOptions()
		opts.Seed = rc.seed
		s := &canonSim{in: canon.New(g, sim.NewMetrics(), opts)}
		s.joins = genCanonJoins(rc.seed, g, rc.size(canonHosts, 60))
		s.routes = genCanonRoutes(rc.seed, len(s.joins), rc.size(canonRouteList, 60))
		return s, len(s.joins), len(s.routes)
	},
}

func fidelityRound(rc roundCtx, shape fidelityShape, phase fidelityPhase) (roundOut, error) {
	out := roundOut{vals: values{}, exact: values{}}
	heap0 := liveHeap()
	setup := time.Now()
	s, joins, routes := shape.build(rc, out.vals)

	// seg is set while the measured stretch runs; done counts the
	// operations of that stretch.
	var seg *segments
	var done int64
	tick := func() {
		if done++; seg != nil && done%32 == 0 {
			seg.tick(done)
		}
	}
	// times receives each measured call's duration; the calls that only
	// populate the ring during set-up are not timed.
	var times *opTimes
	// joinRange joins hosts lo..hi of the list. The control messages the
	// joins cost are an exact statistic.
	joinRange := func(lo, hi int) (failed int64) {
		var msgs int64
		for i := lo; i < hi; i++ {
			start := time.Now()
			m, err := s.join(i)
			if err != nil {
				if failed == 0 {
					out.problemf("%s join %d: %v", shape.name, i, err)
				}
				failed++
			}
			if times != nil {
				times.record(time.Since(start))
			}
			msgs += int64(m)
			tick()
		}
		out.exact[shape.name+"_join_msgs_sum"] = float64(msgs)
		return failed
	}
	// routePass routes every pair of the list once and returns the hops
	// summed over the pass.
	routePass := func() (hops, failed int64) {
		s.resetMetrics()
		for i := 0; i < routes; i++ {
			start := time.Now()
			h, err := s.route(i)
			if err != nil {
				if failed == 0 {
					out.problemf("%s route %d: %v", shape.name, i, err)
				}
				failed++
			}
			if times != nil {
				times.record(time.Since(start))
			}
			hops += int64(h)
			tick()
		}
		return hops, failed
	}
	// measure runs fn as a measured stretch and returns its per-call times.
	measure := func(fn func()) dist {
		start := time.Now()
		opStore.reset()
		seg, done, times = startSegments(), 0, &opStore
		fn()
		out.readings = seg.end(done)
		out.attempted, out.measured = out.attempted+done, out.measured+time.Since(start)
		seg, times = nil, nil
		return opStore.micros()
	}

	switch phase {
	case phaseJoin:
		// The first quarter of the hosts populates the ring during set-up;
		// the joins measured are the rest, into a ring that has
		// members and warm caches.
		base := joins / 4
		if failed := joinRange(0, base); failed > 0 {
			return out, nil
		}
		out.vals["setup_s"] = time.Since(setup).Seconds()
		out.vals["op_p50_us"] = measure(func() { out.failed = joinRange(base, joins) }).P50

	case phaseRoute:
		if failed := joinRange(0, joins); failed > 0 {
			return out, nil
		}
		delete(out.exact, shape.name+"_join_msgs_sum")
		out.vals["setup_s"] = time.Since(setup).Seconds()
		out.vals["op_p50_us"] = measure(func() {
			deadline := time.Now().Add(rc.budget)
			for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
				hops, failed := routePass()
				out.failed += failed
				if pass == 0 && shape.exactHops {
					out.exact[shape.name+"_route_hops_sum"] = float64(hops)
				}
			}
		}).P50

	case phaseSlice:
		if failed := joinRange(0, joins/4); failed > 0 {
			return out, nil
		}
		j := measure(func() { out.failed = joinRange(joins/4, joins) })
		out.vals[tracedRate("sim_"+shape.name+"_join")] = median(out.readings["ops_per_s"])
		var hops int64
		r := measure(func() {
			var failed int64
			hops, failed = routePass()
			out.failed += failed
		})
		out.vals[tracedRate("sim_"+shape.name+"_route")] = median(out.readings["ops_per_s"])
		out.readings = nil
		out.vals[shape.joinMetric+".p50"], out.vals[shape.joinMetric+".p99"] = j.P50, j.Tail
		out.vals[shape.routeMetric+".p50"], out.vals[shape.routeMetric+".p99"] = r.P50, r.Tail
		out.vals[shape.hopsMetric] = float64(hops) / float64(routes)
	}
	if err := s.check(); err != nil {
		out.problemf("%s ring check after the measured phase: %v", shape.name, err)
	}
	out.vals["live_heap_mb"] = heapMB(heap0)
	runtime.KeepAlive(s)
	return out, nil
}
