package proto_test

// Cross-driver equivalence: the same churn schedule, fed once through
// the sim driver (vring.ProtoRing, virtual clock) and once through an
// in-process netem fabric (real goroutine dispatcher, zero-fault
// links), must produce byte-identical protocol event journals. This is
// the contract that makes internal/proto a real extraction: the state
// machine's behavior is a pure function of its event sequence, and both
// drivers deliver the same event sequence for the same schedule.
//
// The netem side is synchronous-pumped: maintenance ticks are fed in
// index order (as the sim does), then arrivals are drained in waves —
// wait for the fabric to go idle, collect every inbox, replay in
// fabric send-sequence order. With zero-fault zero-latency links the
// dispatcher's (due, seq) order equals global send order, which equals
// the sim driver's in-flight FIFO order, so the waves line up exactly.

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"rofl/internal/ident"
	"rofl/internal/netem"
	"rofl/internal/proto"
	"rofl/internal/vring"
	"rofl/internal/wire"
)

// eqDriver is the surface the shared schedule drives. Both
// implementations must emit identical journal marks for identical
// calls.
type eqDriver interface {
	addNode(id ident.ID, addr string)
	bootstrap(i int)
	join(i, via int)
	tickStabilize()
	tickLiveness()
	send(i int, dst ident.ID, payload []byte)
	kill(i int)
	restart(i, via int)
	journal() string
}

const eqNodes = 5

func eqID(i int) ident.ID       { return ident.FromString(fmt.Sprintf("eq-node-%d", i)) }
func eqAddr(i int) string       { return fmt.Sprintf("n%03d", i) }
func eqPayload(s string) []byte { return []byte(s) }

// runEqSchedule is the one churn schedule both drivers replay: build a
// five-node ring, converge it, exchange data, crash a node, let both
// the stabilize-miss and BFD eviction paths fire, quarantine-age the
// corpse, then restart it and reconverge.
func runEqSchedule(d eqDriver) {
	for i := 0; i < eqNodes; i++ {
		d.addNode(eqID(i), eqAddr(i))
	}
	d.bootstrap(0)
	d.join(1, 0)
	d.join(2, 0)
	d.join(3, 1)
	d.join(4, 2)
	for r := 0; r < 6; r++ {
		d.tickStabilize()
	}
	for r := 0; r < 2; r++ {
		d.tickLiveness()
	}
	d.send(0, eqID(3), eqPayload("hello"))
	d.send(3, eqID(1), eqPayload("reply"))

	d.kill(4)
	for r := 0; r < 6; r++ {
		d.tickStabilize()
	}
	for r := 0; r < 4; r++ {
		d.tickLiveness()
	}
	d.send(0, eqID(4), eqPayload("void")) // toward the corpse: dropped or rerouted, identically

	d.restart(4, 1)
	for r := 0; r < 4; r++ {
		d.tickStabilize()
	}
	d.send(1, eqID(4), eqPayload("back"))
}

// --- sim side -------------------------------------------------------

type simDriver struct{ ring *vring.ProtoRing }

func newSimDriver() *simDriver {
	return &simDriver{ring: vring.NewProtoRing(1, nil)}
}

// The sim driver ignores the schedule's transport address: its fabric
// addresses derive from intern handles (proto.HandleAddr). Journals
// never contain addresses, so equivalence is unaffected.
func (d *simDriver) addNode(id ident.ID, addr string)   { d.ring.AddNode(id) }
func (d *simDriver) bootstrap(i int)                    { d.ring.Bootstrap(i) }
func (d *simDriver) join(i, via int)                    { d.ring.Join(i, via) }
func (d *simDriver) tickStabilize()                     { d.ring.TickStabilize() }
func (d *simDriver) tickLiveness()                      { d.ring.TickLiveness() }
func (d *simDriver) send(i int, dst ident.ID, p []byte) { d.ring.Send(i, dst, p) }
func (d *simDriver) kill(i int)                         { d.ring.Kill(i) }
func (d *simDriver) restart(i, via int)                 { d.ring.Restart(i, via) }
func (d *simDriver) journal() string                    { return d.ring.Journal() }

// --- netem side -----------------------------------------------------

type netemNode struct {
	index int
	id    ident.ID
	addr  string
	ep    *netem.Endpoint
	core  *proto.Core // nil while killed
}

type netemDriver struct {
	t    *testing.T
	net  *netem.Network
	jour proto.Journal
	node []*netemNode
	acts proto.Actions
}

func newNetemDriver(t *testing.T) *netemDriver {
	t.Helper()
	d := &netemDriver{t: t, net: netem.NewNetwork(1)}
	t.Cleanup(func() { d.net.Close() })
	return d
}

func (d *netemDriver) addNode(id ident.ID, addr string) {
	ep, err := d.net.Endpoint(addr)
	if err != nil {
		d.t.Fatalf("endpoint %s: %v", addr, err)
	}
	d.node = append(d.node, &netemNode{
		index: len(d.node),
		id:    id,
		addr:  addr,
		ep:    ep,
		core:  proto.New(proto.Config{ID: id, Addr: addr}),
	})
}

func (d *netemDriver) bootstrap(i int) {
	d.jour.Markf("bootstrap %d", i)
	d.node[i].core.Bootstrap()
}

func (d *netemDriver) join(i, via int) {
	n := d.node[i]
	d.jour.Markf("join %d via %d", i, via)
	n.core.StartJoin(n.core.NextReqID(), d.node[via].addr, &d.acts)
	d.dispatch(n)
	d.pump()
}

func (d *netemDriver) tickStabilize() {
	for _, n := range d.node {
		if n.core == nil {
			continue
		}
		d.jour.Markf("tick %d", n.index)
		n.core.TickStabilize(&d.acts)
		d.dispatch(n)
	}
	d.pump()
}

func (d *netemDriver) tickLiveness() {
	for _, n := range d.node {
		if n.core == nil {
			continue
		}
		d.jour.Markf("bfd %d", n.index)
		n.core.TickLiveness(&d.acts)
		d.dispatch(n)
	}
	d.pump()
}

func (d *netemDriver) send(i int, dst ident.ID, p []byte) {
	n := d.node[i]
	d.jour.Markf("send %d", n.index)
	n.core.Originate(dst, p, nil, &d.acts)
	d.dispatch(n)
	d.pump()
}

// kill closes the node's socket and discards its core. The schedule
// only kills at quiescence, so no packet is mid-flight toward it —
// matching the sim driver, where in-flight packets to a dead slot are
// dropped on arrival.
func (d *netemDriver) kill(i int) {
	n := d.node[i]
	d.jour.Markf("kill %d", i)
	n.ep.Close()
	n.ep = nil
	n.core = nil
}

func (d *netemDriver) restart(i, via int) {
	n := d.node[i]
	d.jour.Markf("restart %d", i)
	ep, err := d.net.Endpoint(n.addr) // Close freed the address
	if err != nil {
		d.t.Fatalf("re-endpoint %s: %v", n.addr, err)
	}
	n.ep = ep
	n.core = proto.New(proto.Config{ID: n.id, Addr: n.addr})
	d.join(i, via)
}

func (d *netemDriver) journal() string { return d.jour.String() }

// dispatch records one transition's notes and pushes its sends onto the
// fabric in emission order.
func (d *netemDriver) dispatch(n *netemNode) {
	d.jour.Record(&d.acts)
	for i := range d.acts.Sends {
		snd := d.acts.Sends[i]
		buf, err := snd.Pkt.Marshal()
		if err != nil {
			continue
		}
		if err := n.ep.Send(snd.Addr, buf); err != nil {
			d.t.Fatalf("send %s→%s: %v", n.addr, snd.Addr, err)
		}
	}
	d.acts.Reset()
}

// staged is one arrived datagram awaiting replay.
type staged struct {
	node *netemNode
	from string
	seq  uint64
	buf  []byte
}

// pump drives the fabric to quiescence in waves: wait until the
// dispatcher queue drains (every scheduled delivery is in an inbox),
// collect all inboxes, replay arrivals in fabric send-sequence order,
// and repeat until a wave comes up empty. Handling a wave produces the
// next wave's sends; nothing is collected mid-handling, so waves never
// interleave.
func (d *netemDriver) pump() {
	for {
		d.waitIdle()
		var wave []staged
		for _, n := range d.node {
			if n.ep == nil {
				continue
			}
			for {
				buf, from, seq, ok := n.ep.TryRecv()
				if !ok {
					break
				}
				wave = append(wave, staged{node: n, from: from, seq: seq, buf: buf})
			}
		}
		if len(wave) == 0 {
			return
		}
		sort.Slice(wave, func(i, j int) bool { return wave[i].seq < wave[j].seq })
		for _, st := range wave {
			if st.node.core == nil {
				continue
			}
			var pkt wire.Packet
			if err := pkt.DecodeFromBytes(st.buf); err != nil {
				continue
			}
			st.node.core.HandlePacket(&pkt, st.from, &d.acts)
			d.dispatch(st.node)
		}
	}
}

// waitIdle spins until the dispatcher queue is empty. With zero-latency
// links every pending delivery comes due immediately, so this converges
// in microseconds; the deadline only guards against a wedged fabric.
func (d *netemDriver) waitIdle() {
	deadline := time.Now().Add(5 * time.Second)
	for !d.net.Idle() {
		if time.Now().After(deadline) {
			d.t.Fatal("netem fabric never went idle")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// --- the test -------------------------------------------------------

func TestCrossDriverJournalEquivalence(t *testing.T) {
	simD := newSimDriver()
	runEqSchedule(simD)

	netD := newNetemDriver(t)
	runEqSchedule(netD)

	simJ, netJ := simD.journal(), netD.journal()
	if simJ != netJ {
		t.Fatalf("journals diverge:\n%s", journalDiff(simJ, netJ))
	}
	if lines := strings.Count(simJ, "\n"); lines < 50 {
		t.Fatalf("journal suspiciously short (%d lines):\n%s", lines, simJ)
	}
	// The schedule must actually exercise the failure machinery: the
	// kill has to surface as at least one eviction before the restart.
	if !strings.Contains(simJ, "succ-evicted") {
		t.Fatalf("schedule never evicted the killed node:\n%s", simJ)
	}
	// And both drivers must agree the restarted node is back: slot 4's
	// core rejoined, so some live core lists it as a successor again.
	if !simD.ring.Alive(4) {
		t.Fatal("sim: node 4 not alive after restart")
	}
}

// TestSimDriverDeterminism re-runs the schedule on a fresh sim driver
// and demands the exact same journal: the core has no hidden clock or
// global RNG left.
func TestSimDriverDeterminism(t *testing.T) {
	a := newSimDriver()
	runEqSchedule(a)
	b := newSimDriver()
	runEqSchedule(b)
	if a.journal() != b.journal() {
		t.Fatalf("sim journal not reproducible:\n%s", journalDiff(a.journal(), b.journal()))
	}
}

// journalDiff renders the first divergent line with context, far more
// readable than two multi-hundred-line dumps.
func journalDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			lo := i - 3
			if lo < 0 {
				lo = 0
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "first divergence at line %d\n", i+1)
			for j := lo; j <= i; j++ {
				fmt.Fprintf(&sb, "  sim  %4d: %s\n", j+1, al[j])
			}
			fmt.Fprintf(&sb, "  netem%4d: %s\n", i+1, bl[i])
			return sb.String()
		}
	}
	return fmt.Sprintf("length mismatch: sim %d lines, netem %d lines", len(al), len(bl))
}

// TestSimScheduleDigest pins what the shared schedule does, not only
// that both drivers agree on it: the sha256 of the sim driver's journal
// followed by every node's final ring view and known-peer count, then
// the packets one more stabilize round of each node sends. Those carry
// the gossip sample and the repair-probe target, so the digest also
// reads each core's generator, which the journal never shows. A
// behaviour change both drivers share moves the digest. The want
// string was computed before peerSet became one ID-sorted table; a
// change that is meant to move it must say why.
func TestSimScheduleDigest(t *testing.T) {
	d := newSimDriver()
	runEqSchedule(d)
	h := sha256.New()
	h.Write([]byte(d.journal()))
	var a proto.Actions
	for i := 0; i < eqNodes; i++ {
		c := d.ring.Core(i)
		fmt.Fprintf(h, "node %d %s known=%d\n", i, strings.Join(c.Ring(), " "), c.KnownPeers())
		c.TickStabilize(&a)
		for _, s := range a.Sends {
			buf, err := s.Pkt.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "send %s %x\n", s.Addr, buf)
		}
		a.Reset()
	}
	const want = "daa56401ed02c227fc8f2f48d759aa0b30052a07142d14cbc1d295de362bb47b"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("schedule digest = %s, want %s", got, want)
	}
}
