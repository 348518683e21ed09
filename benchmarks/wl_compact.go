package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// The compact sharded ring: all work is sim.ShardedEngine (heap, outbox,
// barrier) plus the compact handler; no sockets and no proto.

const (
	compactHosts     = 100000
	compactShards    = 2
	compactProbeList = 50000
)

// compactPhase names the stretch a compact round measures.
type compactPhase int

const (
	compactConverge compactPhase = iota // sim_compact_converge: Run()
	compactProbe                        // sim_compact_probe: Probe calls
	compactSlice                        // a traced round: both, and both shard counts
)

func compactConfig(rc roundCtx, shards int) vring.CompactConfig {
	cfg := vring.DefaultCompactConfig()
	cfg.Hosts = rc.size(compactHosts, 500)
	cfg.EphemeralEvery = 100
	cfg.SuccessorGroup = 3
	cfg.CacheCapacity = 8192
	cfg.Shards = shards
	cfg.Seed = rc.seed
	return cfg
}

// compactStats are the simulated statistics of one converged ring and
// one pass over the probe list. A change that only makes the simulator
// faster leaves every one of them identical.
type compactStats struct {
	ring                 *vring.CompactRing
	build, run           time.Duration
	vms                  float64
	ctlMsgs              int64
	probes, probeFailed  int64
	hitShare, stretchP50 float64
	bytesPerHost         float64
	short                int64
}

func (s compactStats) exact() values {
	return values{
		"compact_converge_vms":   s.vms,
		"compact_ctl_msgs":       float64(s.ctlMsgs),
		"compact_bytes_per_host": s.bytesPerHost,
		"compact_short_groups":   float64(s.short),
	}
}

func (s compactStats) probeExact() values {
	return values{
		"compact_cache_hit_share": s.hitShare,
		"compact_stretch_p50":     s.stretchP50,
		"compact_probe_failed":    float64(s.probeFailed),
	}
}

// buildCompact builds the primed, unconverged ring.
func buildCompact(isp *topology.ISP, cfg vring.CompactConfig) compactStats {
	start := time.Now()
	ring := vring.NewCompactRing(isp, cfg)
	return compactStats{ring: ring, build: time.Since(start)}
}

// converge runs stabilization to convergence and reads the run's exact
// statistics.
func (s *compactStats) converge() phaseCost {
	ph := beginPhase()
	s.vms = float64(s.ring.Run())
	cost := ph.end()
	s.run = cost.Wall
	s.ctlMsgs = s.ring.Metrics().Counter(vring.MsgCompactControl)
	s.bytesPerHost = float64(s.ring.Footprint().Total()) / float64(s.ring.Members())
	s.short = shortGroups(s.ring, 3)
	return cost
}

// probeTimeEvery is the stride at which probePass times single calls: a
// probe takes a few microseconds, and a clock read on each would show.
const probeTimeEvery = 8

// probePass sends every probe of the list once, timing every eighth call
// into times (when not nil), and fills in the pass's statistics. The probe
// sink is emptied first, so the statistics (and the heap) are those of one
// pass however many ran.
func (s *compactStats) probePass(ops []probeOp, times *opTimes) {
	r := s.ring
	r.ProbeMetrics().Reset()
	s.probes, s.probeFailed = 0, 0
	for i, op := range ops {
		from, dst := ident.Handle(op.From), r.IDOf(ident.Handle(op.To))
		var res vring.ProbeResult
		var err error
		if times != nil && i%probeTimeEvery == 0 {
			start := time.Now()
			res, err = r.Probe(from, dst)
			times.record(time.Since(start))
		} else {
			res, err = r.Probe(from, dst)
		}
		s.probes++
		if err != nil || !res.Delivered {
			s.probeFailed++
		}
	}
	pm := r.ProbeMetrics()
	hit, miss := pm.Counter(vring.CtrCompactCacheHit), pm.Counter(vring.CtrCompactCacheMiss)
	if hit+miss > 0 {
		s.hitShare = float64(hit) / float64(hit+miss)
	}
	s.stretchP50 = sim.Summarize(pm.Samples(vring.SampleCompactStretch)).P50
}

func compactRound(rc roundCtx, phase compactPhase) (roundOut, error) {
	out := roundOut{vals: values{}}
	heap0 := liveHeap()
	setup := time.Now()
	isp := topology.GenISP(topology.AS1221)
	genISP := time.Since(setup)
	cfg := compactConfig(rc, compactShards)
	ops := genProbeOps(rc.seed, cfg.Hosts, rc.size(compactProbeList, 500))

	s := buildCompact(isp, cfg)
	switch phase {
	case compactConverge:
		out.vals["setup_s"] = time.Since(setup).Seconds()
		// One operation is one member brought to a stable successor group;
		// Run cannot be cut, so a round is one segment.
		seg := startSegments()
		cost := s.converge()
		out.readings = seg.end(int64(cfg.Hosts))
		out.vals["op_p50_us"] = float64(cost.Wall) / 1e3 / float64(cfg.Hosts)
		out.attempted, out.measured = int64(cfg.Hosts), cost.Wall
		out.failed = unconverged(s.ring)
		out.exact = s.exact()

	case compactProbe:
		s.converge()
		out.vals["setup_s"] = time.Since(setup).Seconds()
		if n := unconverged(s.ring); n > 0 {
			out.problemf("%d members off sorted order after Run", n)
		}
		start := time.Now()
		opStore.reset()
		seg := startSegments()
		deadline := start.Add(rc.budget)
		for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
			s.probePass(ops, &opStore)
			out.attempted += s.probes
			out.failed += s.probeFailed
			if pass == 0 {
				out.exact = s.probeExact()
			}
			seg.tick(out.attempted)
		}
		out.readings = seg.end(out.attempted)
		out.measured = time.Since(start)
		out.vals["op_p50_us"] = opStore.micros().P50

	case compactSlice:
		if err := compactLayers(isp, cfg, &s, ops, out.vals); err != nil {
			return out, err
		}
		out.vals["topology.gen_isp_ms"] = float64(genISP) / 1e6
		out.attempted, out.failed = s.probes, s.probeFailed
	}
	if out.failed > 0 {
		out.problemf("%d of %d operations failed on the compact ring", out.failed, out.attempted)
	}
	out.vals["live_heap_mb"] = heapMB(heap0)
	runtime.KeepAlive(s.ring)
	return out, nil
}

// unconverged counts members whose successor or predecessor pointer is
// not its neighbour in sorted identifier order.
func unconverged(r *vring.CompactRing) int64 {
	m := r.Members()
	order := make([]ident.Handle, m)
	for h := range order {
		order[h] = ident.Handle(h)
	}
	sort.Slice(order, func(i, j int) bool { return r.IDOf(order[i]).Less(r.IDOf(order[j])) })
	var wrong int64
	for k, h := range order {
		if m > 1 && (r.Succ(h, 0) != order[(k+1)%m] || r.Pred(h) != order[(k-1+m)%m]) {
			wrong++
		}
	}
	return wrong
}

// shortGroups counts members that went stable holding fewer successors
// than configured: a member stops stabilizing after two rounds without
// change, which can be before its successor has learnt its own group.
func shortGroups(r *vring.CompactRing, want int) int64 {
	var n int64
	for h := 0; h < r.Members(); h++ {
		if r.NumSucc(ident.Handle(h)) < min(want, r.Members()-1) {
			n++
		}
	}
	return n
}

// compactLayers is the traced round: the ring converged at two shards and
// at one, every exact statistic compared between them, each probe timed,
// and the bare engine measured under an echo handler of the same shape.
func compactLayers(isp *topology.ISP, cfg vring.CompactConfig, two *compactStats, ops []probeOp, vals values) error {
	cfg1 := cfg
	cfg1.Shards = 1
	one := buildCompact(isp, cfg1)
	one.converge()
	one.probePass(ops, nil)
	affinity := make([]uint32, one.ring.Members()+one.ring.Ephemerals())
	for h := range affinity {
		affinity[h] = uint32(one.ring.RouterOf(ident.Handle(h)))
	}
	oneExact, oneProbe := one.exact(), one.probeExact()
	one.ring = nil

	two.converge()
	two.probePass(ops, nil)
	for name, want := range oneExact {
		if got := two.exact()[name]; got != want {
			return fmt.Errorf("%s: %v at 1 shard, %v at %d shards", name, want, got, cfg.Shards)
		}
	}
	for name, want := range oneProbe {
		if got := two.probeExact()[name]; got != want {
			return fmt.Errorf("%s: %v at 1 shard, %v at %d shards", name, want, got, cfg.Shards)
		}
	}

	r := two.ring
	probeNs := make([]float64, len(ops))
	probeStart := time.Now()
	for i, op := range ops {
		dst := r.IDOf(ident.Handle(op.To))
		start := time.Now()
		_, err := r.Probe(ident.Handle(op.From), dst)
		probeNs[i] = float64(time.Since(start))
		if err != nil {
			return err
		}
	}
	vals[tracedRate("sim_compact_converge")] = float64(r.Members()) / two.run.Seconds()
	vals[tracedRate("sim_compact_probe")] = float64(len(ops)) / time.Since(probeStart).Seconds()
	joins := ops[:max(len(ops)/4, 1)]
	start := time.Now()
	for _, op := range joins {
		if _, err := r.ProbeJoin(ident.Handle(op.From), op.Joining); err != nil {
			return err
		}
	}
	joinNs := float64(time.Since(start)) / float64(len(joins))
	r.ProbeMetrics().Reset()

	d := summarize(probeNs)
	vals["vring.compact_build_s"] = two.build.Seconds()
	vals["vring.compact_run_s_shards1"] = one.run.Seconds()
	vals["vring.compact_run_s_shards2"] = two.run.Seconds()
	vals["sim.shard_speedup"] = one.run.Seconds() / two.run.Seconds()
	vals["vring.compact_ctl_msgs"] = float64(two.ctlMsgs)
	vals["vring.compact_ns_per_ctl_msg"] = float64(two.run) / float64(two.ctlMsgs)
	vals["vring.compact_probe_ns.p50"], vals["vring.compact_probe_ns.p99"] = d.P50, d.Tail
	vals["vring.compact_probejoin_ns"] = joinNs
	vals["vring.compact_cache_hit_share"] = two.hitShare
	vals["vring.compact_stretch_p50"] = two.stretchP50
	vals["vring.compact_converge_vms"] = two.vms
	vals["vring.compact_bytes_per_host"] = two.bytesPerHost
	vals["sim.engine_ns_per_event_shards1"] = engineEcho(affinity, 1)
	vals["sim.engine_ns_per_event_shards2"] = engineEcho(affinity, compactShards)
	return nil
}

// echoHandler is the benchmark's own sim.Handler: each node's timer sends
// one message to a fixed peer, the peer replies, and the reply re-arms the
// timer, for echoRounds rounds. It touches no state but its event counts,
// so what a run of it costs is the engine: heap, outbox and barrier.
type echoHandler struct {
	nodes  uint32
	events [8]struct {
		n int64
		_ [56]byte // one cache line per shard
	}
}

const (
	echoTimer = iota
	echoPing
	echoPong
	echoRounds = 4
)

func (h *echoHandler) HandleMsg(sc *sim.ShardContext, m sim.Msg) {
	h.events[sc.Shard()].n++
	switch m.Kind {
	case echoTimer:
		peer := uint32((uint64(m.Dst)*2654435761 + 1) % uint64(h.nodes))
		sc.Send(1, sim.Msg{Src: m.Dst, Dst: peer, Kind: echoPing, Hop: m.Hop})
	case echoPing:
		sc.Send(1, sim.Msg{Src: m.Dst, Dst: m.Src, Kind: echoPong, Hop: m.Hop})
	case echoPong:
		if m.Hop+1 < echoRounds {
			sc.Send(10, sim.Msg{Src: m.Dst, Dst: m.Dst, Kind: echoTimer, Hop: m.Hop + 1})
		}
	}
}

// engineEcho returns the host time per event of the bare sharded engine
// with the compact ring's node count and router affinity.
func engineEcho(affinity []uint32, shards int) float64 {
	h := &echoHandler{nodes: uint32(len(affinity))}
	eng := sim.NewSharded(len(affinity), shards, 1, affinity, h)
	for n := range affinity {
		eng.Prime(sim.Time(n%1024)/1024*10, sim.Msg{Src: uint32(n), Dst: uint32(n), Kind: echoTimer})
	}
	start := time.Now()
	eng.Run()
	elapsed := time.Since(start)
	var events int64
	for i := range h.events {
		events += h.events[i].n
	}
	return float64(elapsed) / float64(events)
}
