package experiments

import (
	"fmt"
	"math/rand"

	"rofl/internal/baseline/bgppolicy"
	"rofl/internal/canon"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// ablations exercises the design choices DESIGN.md calls out, one
// sub-table per knob:
//
//   - successor-group size: join cost vs resilience to host failure;
//   - cache-fill policy: control-only (the paper's default) vs off vs
//     data snooping;
//   - proximity fingers vs random fingers (interdomain);
//   - directed teardown floods vs whole-network floods on host failure.
//
// Each knob's arms run as parallel trials; arms of the same knob share
// that knob's trial-group seed (groups 0-3 in the order above) so every
// comparison stays paired.
func ablations(cfg Config) Table {
	t := Table{
		ID:      "ablation",
		Title:   "Design-choice ablations",
		Columns: []string{"knob", "setting", "metric", "value"},
	}
	ablSuccessorGroup(cfg, &t)
	ablCachePolicy(cfg, &t)
	ablFingerSelection(cfg, &t)
	ablDirectedFlood(cfg, &t)
	return t
}

func ablSuccessorGroup(cfg Config, t *Table) {
	ic := topology.AS3967
	if ic.Hosts > cfg.HostsPerISP {
		ic.Hosts = cfg.HostsPerISP
	}
	groups := []int{1, 2, 4, 8}
	joinAvgs := make([]float64, len(groups))
	repairs := make([]float64, len(groups))
	forTrials(cfg, len(groups), func(trial int) {
		isp := topology.GenISP(ic)
		m := sim.NewMetrics()
		opts := vring.DefaultOptions()
		opts.SuccessorGroup = groups[trial]
		n := vring.New(isp.Graph, m, opts)
		rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 0)))
		ids, joins, err := joinHosts(n, isp, ic.Hosts, rng)
		if err != nil {
			panic(err)
		}
		joinAvgs[trial] = meanJoinMsgs(joins)
		// Fail a batch of hosts; with a larger group more repairs resolve
		// by shift-down instead of rejoin probes.
		before := m.Counter(vring.MsgTeardown) + m.Counter(vring.MsgRepair)
		fails := len(ids) / 10
		for i := 0; i < fails; i++ {
			if err := n.FailHost(ids[i]); err != nil {
				panic(err)
			}
		}
		repair := m.Counter(vring.MsgTeardown) + m.Counter(vring.MsgRepair) - before
		repairs[trial] = float64(repair) / float64(fails)
	})
	for i, group := range groups {
		t.AddRow("succ-group", group, "join-msgs-avg", joinAvgs[i])
		t.AddRow("succ-group", group, "fail-repair-msgs/host", repairs[i])
	}
}

func ablCachePolicy(cfg Config, t *Table) {
	ic := topology.AS3257
	if ic.Hosts > cfg.HostsPerISP {
		ic.Hosts = cfg.HostsPerISP
	}
	type setting struct {
		name           string
		control, snoop bool
	}
	settings := []setting{
		{"off", false, false},
		{"control-only", true, false}, // the paper's configuration
		{"control+snoop", true, true},
	}
	stretch := make([]float64, len(settings))
	forTrials(cfg, len(settings), func(trial int) {
		s := settings[trial]
		isp := topology.GenISP(ic)
		m := sim.NewMetrics()
		opts := vring.DefaultOptions()
		opts.CacheControl = s.control
		opts.SnoopData = s.snoop
		n := vring.New(isp.Graph, m, opts)
		rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 1)))
		ids, _, err := joinHosts(n, isp, ic.Hosts, rng)
		if err != nil {
			panic(err)
		}
		picker := newHostPicker(isp)
		var total float64
		count := 0
		// Two passes so snooped entries pay off on the repeat traffic.
		for pass := 0; pass < 2; pass++ {
			r2 := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 1) + 7))
			total, count = 0, 0
			for p := 0; p < cfg.Pairs/2; p++ {
				res, err := n.Route(picker.pick(r2), ids[r2.Intn(len(ids))])
				if err != nil {
					continue
				}
				total += res.Stretch
				count++
			}
		}
		stretch[trial] = total / float64(count)
	})
	for i, s := range settings {
		t.AddRow("cache-fill", s.name, "stretch-mean", stretch[i])
	}
}

func ablFingerSelection(cfg Config, t *Table) {
	stretch := make([]float64, 2)
	forTrials(cfg, 2, func(trial int) {
		random := trial == 1
		g := genASGraph(cfg)
		opts := canon.DefaultOptions()
		opts.FingerBudget = 160
		opts.RandomFingers = random
		in := canon.New(g, sim.NewMetrics(), opts)
		ids, _, err := joinInter(in, g, cfg.InterHosts/4, canon.Multihomed, sim.TrialSeed(cfg.Seed, 2), fmt.Sprintf("abl-f-%v", random))
		if err != nil {
			panic(err)
		}
		bgp := bgppolicy.New(g)
		rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 2) + 8))
		var sum float64
		var count int
		for p := 0; p < cfg.Pairs; p++ {
			src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if src == dst {
				continue
			}
			res, err := in.Route(src, dst)
			if err != nil {
				continue
			}
			srcAS, _ := in.HostingAS(src)
			dstAS, _ := in.HostingAS(dst)
			base := bgp.Hops(srcAS, dstAS, nil)
			if base <= 0 {
				continue
			}
			sum += float64(res.ASHops) / float64(base)
			count++
		}
		stretch[trial] = sum / float64(count)
	})
	t.AddRow("finger-selection", "proximity", "stretch-mean@160f", stretch[0])
	t.AddRow("finger-selection", "random", "stretch-mean@160f", stretch[1])
}

func ablDirectedFlood(cfg Config, t *Table) {
	ic := topology.AS3967
	if ic.Hosts > cfg.HostsPerISP {
		ic.Hosts = cfg.HostsPerISP
	}
	isp := topology.GenISP(ic)
	m := sim.NewMetrics()
	n := vring.New(isp.Graph, m, vring.DefaultOptions())
	rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 3)))
	ids, _, err := joinHosts(n, isp, ic.Hosts, rng)
	if err != nil {
		panic(err)
	}
	fullFlood := 2 * isp.Graph.NumEdges()
	before := m.Counter(vring.MsgTeardown)
	fails := len(ids) / 10
	for i := 0; i < fails; i++ {
		if err := n.FailHost(ids[i]); err != nil {
			panic(err)
		}
	}
	directed := float64(m.Counter(vring.MsgTeardown)-before) / float64(fails)
	t.AddRow("teardown-flood", "directed (paper)", "msgs/failure", directed)
	t.AddRow("teardown-flood", "whole-network", "msgs/failure", fullFlood)
	t.Note("directed teardown floods cost %.1fx less than flooding every router (paper §3.2 rejects whole-network floods as inefficient)",
		float64(fullFlood)/directed)
}

// meanJoinMsgs is the mean message cost of joins.
func meanJoinMsgs(joins []vring.JoinResult) float64 {
	if len(joins) == 0 {
		return 0
	}
	var s float64
	for _, j := range joins {
		s += float64(j.Msgs)
	}
	return s / float64(len(joins))
}
