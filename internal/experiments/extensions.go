package experiments

import (
	"fmt"
	"math/rand"

	"rofl/internal/canon"
	"rofl/internal/delivery"
	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// extensions quantifies the §5 extensions the paper describes
// qualitatively: anycast delivery without extra state, multicast tree
// efficiency vs unicast fan-out, and endpoint path negotiation cutting
// post-first-packet stretch to ~1 (§5.1/§5.2/§6.3 "stretch for remaining
// packets can be reduced to one").
func extensions(cfg Config) Table {
	t := Table{
		ID:      "extensions",
		Title:   "§5 extensions: anycast, multicast, path negotiation",
		Columns: []string{"mechanism", "metric", "value"},
	}
	// The three mechanisms are independent trials (each builds its own
	// network); their sub-tables assemble in mechanism order.
	subs := []func(Config, *Table){extAnycast, extMulticast, extNegotiation}
	parts := make([]Table, len(subs))
	forTrials(cfg, len(subs), func(trial int) {
		subs[trial](cfg, &parts[trial])
	})
	for _, p := range parts {
		t.Rows = append(t.Rows, p.Rows...)
		t.Notes = append(t.Notes, p.Notes...)
	}
	return t
}

func extAnycast(cfg Config, t *Table) {
	ic := topology.AS3967
	if ic.Hosts > cfg.HostsPerISP {
		ic.Hosts = cfg.HostsPerISP
	}
	isp := topology.GenISP(ic)
	m := sim.NewMetrics()
	n := vring.New(isp.Graph, m, vring.DefaultOptions())
	rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 0)))
	if _, err := joinHosts(n, isp, ic.Hosts/2, rng); err != nil {
		panic(err)
	}
	g := ident.GroupFromString("ext-anycast")
	any := delivery.NewAnycast(n, g)
	joinBefore := m.Counter(vring.MsgJoin)
	const members = 6
	for i := 0; i < members; i++ {
		// Suffixes spread uniformly over the 32-bit space: each member's
		// anycast catchment is the interval between suffixes, so even
		// spacing is the i3-style load-balancing knob §5.2 alludes to.
		suffix := uint32(i) * (1 << 31 / members * 2)
		if _, err := any.AddMember(suffix, isp.Access[(i*11)%len(isp.Access)]); err != nil {
			panic(err)
		}
	}
	extraState := m.Counter(vring.MsgJoin) - joinBefore
	picker := newHostPicker(isp)
	var hops float64
	served := map[vring.RouterID]int{}
	const sends = 300
	for i := 0; i < sends; i++ {
		out, err := any.Send(picker.pick(rng), rng)
		if err != nil {
			panic(err)
		}
		hops += float64(out.Msgs)
		served[out.Final]++
	}
	// Spread: fraction served by the busiest replica (1/members = even).
	max := 0
	for _, c := range served {
		if c > max {
			max = c
		}
	}
	t.AddRow("anycast", "members", members)
	t.AddRow("anycast", "join-msgs-total (== ordinary joins)", extraState)
	t.AddRow("anycast", "avg-hops-to-nearest", hops/sends)
	t.AddRow("anycast", "busiest-replica-share", float64(max)/sends)
}

func extMulticast(cfg Config, t *Table) {
	ic := topology.AS3967
	if ic.Hosts > cfg.HostsPerISP {
		ic.Hosts = cfg.HostsPerISP
	}
	isp := topology.GenISP(ic)
	m := sim.NewMetrics()
	n := vring.New(isp.Graph, m, vring.DefaultOptions())
	rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 1)))
	if _, err := joinHosts(n, isp, ic.Hosts/2, rng); err != nil {
		panic(err)
	}
	g := ident.GroupFromString("ext-multicast")
	mc := delivery.NewMulticast(n, g, m)
	const members = 10
	for i := 0; i < members; i++ {
		if err := mc.Join(uint32(i+1), isp.Access[(i*7+3)%len(isp.Access)]); err != nil {
			panic(err)
		}
	}
	reached, treeMsgs, err := mc.Send(g.Member(1))
	if err != nil {
		panic(err)
	}
	src, _ := n.HostingRouter(g.Member(1))
	unicast := 0
	for i := 2; i <= members; i++ {
		res, err := n.Route(src, g.Member(uint32(i)))
		if err != nil {
			panic(err)
		}
		unicast += res.Hops
	}
	t.AddRow("multicast", "members-reached", fmt.Sprintf("%d/%d", len(reached), members))
	t.AddRow("multicast", "tree-send-msgs", treeMsgs)
	t.AddRow("multicast", "unicast-fanout-msgs", unicast)
	t.AddRow("multicast", "tree-savings", fmt.Sprintf("%.1fx", float64(unicast)/float64(treeMsgs)))
}

func extNegotiation(cfg Config, t *Table) {
	g := genASGraph(cfg)
	in := canon.New(g, sim.NewMetrics(), canon.DefaultOptions())
	ids, err := joinInter(in, g, cfg.InterHosts/4, canon.Multihomed, sim.TrialSeed(cfg.Seed, 2), "ext-neg")
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 2) + 9))
	var firstHops, nextHops, setSize float64
	var count int
	for i := 0; i < cfg.Pairs/4; i++ {
		src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if src == dst {
			continue
		}
		neg, err := in.Negotiate(src, dst, nil)
		if err != nil {
			continue
		}
		path, err := in.RouteNegotiated(neg)
		if err != nil {
			continue
		}
		firstHops += float64(neg.FirstPacket.ASHops)
		nextHops += float64(len(path) - 1)
		setSize += float64(len(neg.Allowed))
		count++
	}
	fc := float64(count)
	t.AddRow("negotiation", "sessions", count)
	t.AddRow("negotiation", "first-packet-hops-avg", firstHops/fc)
	t.AddRow("negotiation", "negotiated-hops-avg", nextHops/fc)
	t.AddRow("negotiation", "negotiated-set-ASes-avg", setSize/fc)
	t.Note("after the first packet, negotiated sessions route at policy-path cost — the paper's 'stretch for remaining packets can be reduced to one' (§6.3)")
}
