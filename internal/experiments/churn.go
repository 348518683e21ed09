package experiments

import (
	"fmt"
	"math/rand"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
	"rofl/internal/wire"
)

// churn quantifies §6.2's churn claims: "join overhead is a one-time
// cost in the absence of churn", "the overhead triggered by host failure
// and mobility [is] comparable to join overhead", and ephemeral joins
// cost less than stable joins. The driver runs a sustained churn
// workload (joins, graceful leaves, crashes, moves, ephemeral joins) and
// reports per-event control costs side by side.
//
// The whole point is one network mutating through an interleaved event
// sequence, so this driver is inherently a single sequential trial and
// runs identically at any Workers setting.
func churn(cfg Config) Table {
	t := Table{
		ID:      "churn",
		Title:   "Per-event control cost under sustained churn [messages]",
		Columns: []string{"event", "count", "avg-msgs", "vs-stable-join"},
	}
	ic := topology.AS3967
	if ic.Hosts > cfg.HostsPerISP {
		ic.Hosts = cfg.HostsPerISP
	}
	isp := topology.GenISP(ic)
	m := sim.NewMetrics()
	n := vring.New(isp.Graph, m, vring.DefaultOptions())
	rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, 0)))

	// Baseline population.
	ids, joins, err := joinHosts(n, isp, ic.Hosts, rng)
	if err != nil {
		panic(err)
	}
	picker := newHostPicker(isp)
	baselineJoin := meanJoinMsgs(joins)

	type bucket struct {
		count int
		msgs  int64
	}
	events := map[string]*bucket{}
	charge := func(name string, fn func() error) {
		before := m.Counter(vring.MsgJoin) + m.Counter(vring.MsgTeardown) + m.Counter(vring.MsgRepair)
		if err := fn(); err != nil {
			panic(fmt.Sprintf("churn %s: %v", name, err))
		}
		after := m.Counter(vring.MsgJoin) + m.Counter(vring.MsgTeardown) + m.Counter(vring.MsgRepair)
		b := events[name]
		if b == nil {
			b = &bucket{}
			events[name] = b
		}
		b.count++
		b.msgs += after - before
	}

	next := len(ids)
	newID := func() ident.ID {
		id := ident.FromString(fmt.Sprintf("churn-%d", next))
		next++
		return id
	}
	const rounds = 60
	for i := 0; i < rounds; i++ {
		// Stable join.
		sid := newID()
		charge("stable-join", func() error {
			_, err := n.JoinHost(sid, picker.pick(rng))
			if err == nil {
				ids = append(ids, sid)
			}
			return err
		})
		// Ephemeral join + crash.
		eid := newID()
		charge("ephemeral-join", func() error {
			_, err := n.JoinEphemeral(eid, picker.pick(rng))
			return err
		})
		charge("ephemeral-crash", func() error { return n.FailHost(eid) })
		// Mobility.
		mid := ids[rng.Intn(len(ids))]
		charge("mobility", func() error {
			_, err := n.MoveHost(mid, picker.pick(rng))
			return err
		})
		// Crash of a stable host.
		victimIdx := rng.Intn(len(ids))
		victim := ids[victimIdx]
		charge("host-crash", func() error { return n.FailHost(victim) })
		ids = append(ids[:victimIdx], ids[victimIdx+1:]...)
		// Graceful leave.
		leaveIdx := rng.Intn(len(ids))
		leaver := ids[leaveIdx]
		charge("graceful-leave", func() error { return n.LeaveHost(leaver) })
		ids = append(ids[:leaveIdx], ids[leaveIdx+1:]...)
	}
	if err := n.CheckRing(); err != nil {
		panic(fmt.Sprintf("churn left the ring broken: %v", err))
	}

	for _, name := range []string{"stable-join", "ephemeral-join", "ephemeral-crash", "mobility", "host-crash", "graceful-leave"} {
		b := events[name]
		a := float64(b.msgs) / float64(b.count)
		t.AddRow(name, b.count, a, fmt.Sprintf("%.2fx", a/baselineJoin))
	}
	t.Note("baseline stable join over the warm network: %.1f msgs; failure and mobility land within a small factor of it (§6.2), and the ring stayed consistent through all %d events", baselineJoin, 6*rounds)
	return t
}

// msgSizes reproduces the paper's control-message size analysis (§6.3):
// "with 256 fingers the message size increases to 1638 bytes. If we
// assume an MTU of 1500 bytes, a 256-finger single-homed join requires
// 258 IP packets" [sic — the paper's fragment accounting]. We build the
// actual join messages with the wire format and measure them.
func msgSizes(cfg Config) Table {
	t := Table{
		ID:      "msgsizes",
		Title:   "Join-message sizes vs finger count (wire format)",
		Columns: []string{"fingers", "bytes", "mtu-1500-fragments"},
	}
	counts := []int{0, 60, 128, 160, 256, 340}
	// One trial per finger count; each builds and marshals its own join
	// reply from its trial-derived RNG.
	type msgRow struct{ bytes, frags int }
	results := make([]msgRow, len(counts))
	forTrials(cfg, len(counts), func(trial int) {
		fingers := counts[trial]
		rng := rand.New(rand.NewSource(sim.TrialSeed(cfg.Seed, trial)))
		// A finger-carrying join reply: header + one (ID, AS) entry per
		// finger in the payload (16 + 4 bytes each, the same density the
		// paper's 1638-byte figure implies for 256 entries).
		payload := make([]byte, 0, fingers*20)
		for i := 0; i < fingers; i++ {
			id := ident.Random(rng)
			payload = append(payload, id[:]...)
			payload = append(payload, byte(i), byte(i>>8), 0, 0)
		}
		pkt := &wire.Packet{
			Type: wire.TypeJoinReply, TTL: wire.DefaultTTL,
			Dst: ident.Random(rng), Src: ident.Random(rng),
			ASRoute: []uint32{1, 2, 3, 4}, Payload: payload,
		}
		buf, err := pkt.Marshal()
		if err != nil {
			panic(err)
		}
		results[trial] = msgRow{bytes: len(buf), frags: (len(buf) + 1499) / 1500}
	})
	for i, fingers := range counts {
		t.AddRow(fingers, results[i].bytes, results[i].frags)
	}
	t.Note("the paper reports 1638 bytes at 256 fingers (≈6 B/finger, a compressed encoding); this wire format carries full 128-bit IDs plus hosting ASes at 20 B/finger — same order, same conclusion: finger-heavy joins fragment past one MTU")
	return t
}
