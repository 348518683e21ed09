package proto

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/wire"
)

// The core is a pure state machine: drivers own every goroutine, and the
// cross-driver journal gate relies on transitions that run to completion
// on the caller's stack. A go statement anywhere in the package breaks
// that contract.
func TestNoGoStatements(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement in the protocol core; spawn goroutines in the driver", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}

func testCore(v uint64) *Core {
	c := New(Config{ID: ident.FromUint64(v), Addr: testPeer(v).Addr})
	return c
}

// TestLearnEvictionSparesRingNeighbors is the regression test for the
// maxKnown eviction bug: choosing an arbitrary victim could silently
// forget the core's own successors or predecessor, removing live ring
// neighbors from repair probing. Eviction must skip them.
func TestLearnEvictionSparesRingNeighbors(t *testing.T) {
	c := testCore(1000)
	succs := []Peer{testPeer(2000), testPeer(3000), testPeer(4000)}
	pred := testPeer(500)
	c.InstallRing(succs, &pred)
	// Ring neighbors are remembered first, then enough strangers to
	// force evictions far past the bound.
	for _, e := range succs {
		c.Learn(e)
	}
	c.Learn(pred)
	for i := 0; i < 4*maxKnown; i++ {
		c.Learn(testPeer(uint64(100000 + i)))
	}
	if c.KnownPeers() > maxKnown {
		t.Fatalf("known grew to %d, bound is %d", c.KnownPeers(), maxKnown)
	}
	for _, e := range succs {
		if !c.known.contains(e.ID) {
			t.Fatalf("successor %v was evicted from known", e.ID)
		}
	}
	if !c.known.contains(pred.ID) {
		t.Fatalf("predecessor %v was evicted from known", pred.ID)
	}
}

// TestSamplingDeterministic pins the determinism contract: gossip
// fanout and probe choice are a pure function of the core's seeded RNG
// and its learn history, so two cores with the same identity and
// history sample identically.
func TestSamplingDeterministic(t *testing.T) {
	build := func() *Core {
		c := testCore(42)
		c.InstallRing([]Peer{testPeer(2000)}, nil)
		for i := 0; i < 64; i++ {
			c.Learn(testPeer(uint64(5000 + i*13)))
		}
		return c
	}
	a, b := build(), build()
	self := testPeer(42)
	for round := 0; round < 50; round++ {
		ga, gb := a.gossip(self), b.gossip(self)
		if !reflect.DeepEqual(ga, gb) {
			t.Fatalf("round %d: gossip samples diverged:\na: %+v\nb: %+v", round, ga, gb)
		}
		pa, oka := a.pickProbe()
		pb, okb := b.pickProbe()
		if oka != okb || pa != pb {
			t.Fatalf("round %d: probe picks diverged: %+v/%v vs %+v/%v", round, pa, oka, pb, okb)
		}
	}
}

// TestGossipSamplesAreDistinct checks the sampler never packs the same
// peer twice into one gossip payload and never includes more than the
// fanout.
func TestGossipSamplesAreDistinct(t *testing.T) {
	c := testCore(7)
	for i := 0; i < 16; i++ {
		c.Learn(testPeer(uint64(1000 + i)))
	}
	self := testPeer(7)
	for round := 0; round < 200; round++ {
		g := c.gossip(self)
		if len(g) > 1+gossipFanout {
			t.Fatalf("gossip payload too large: %d entries", len(g))
		}
		if g[0] != self {
			t.Fatal("gossip must lead with the core's own entry")
		}
		seen := map[ident.ID]bool{}
		for _, e := range g {
			if seen[e.ID] {
				t.Fatalf("duplicate %v in gossip payload", e.ID)
			}
			seen[e.ID] = true
		}
	}
}

// sendAddrs extracts the target addresses of the emitted sends.
func sendAddrs(a *Actions) []string {
	out := make([]string, 0, len(a.Sends))
	for _, s := range a.Sends {
		out = append(out, s.Addr)
	}
	return out
}

// dataTo is a fresh data packet for dst.
func dataTo(dst uint64) *wire.Packet {
	return &wire.Packet{Type: wire.TypeData, TTL: wire.DefaultTTL,
		Dst: ident.FromUint64(dst), Src: ident.FromUint64(1)}
}

// forwardsTo runs one forwarding decision toward dst and returns the
// address the packet left for, or "" when it was dropped.
func forwardsTo(t *testing.T, c *Core, dst uint64) string {
	t.Helper()
	var a Actions
	c.ForwardData(dataTo(dst), &a)
	switch len(a.Sends) {
	case 0:
		return ""
	case 1:
		return a.Sends[0].Addr
	}
	t.Fatalf("one forward emitted %d sends", len(a.Sends))
	return ""
}

// TestForwardCachedPeerStrictlyCloserWins: Algorithm 2 over ring
// pointers and the known index — a remembered peer closer to the
// destination than every ring pointer takes the packet, whether or not
// a ring pointer makes progress; with nothing legal anywhere the packet
// drops with a note.
func TestForwardCachedPeerStrictlyCloserWins(t *testing.T) {
	c := testCore(1000)
	c.InstallRing([]Peer{testPeer(2000)}, nil)
	c.Learn(testPeer(500))
	c.Learn(testPeer(2999))
	if got := forwardsTo(t, c, 3000); got != "peer:2999" {
		t.Fatalf("forwarded to %q, want the closer cached peer:2999 over ring pointer 2000", got)
	}
	c.InstallRing([]Peer{testPeer(5000)}, nil) // overshoots dst: no ring progress
	if got := forwardsTo(t, c, 3000); got != "peer:2999" {
		t.Fatalf("forwarded to %q, want cached peer:2999 past an overshooting ring", got)
	}
	var a Actions
	c.ForwardData(dataTo(1100), &a) // the destination's whole arc is unknown
	if len(a.Sends) != 0 {
		t.Fatal("packet with no legal hop anywhere must be dropped")
	}
	if len(a.Notes) != 1 || a.Notes[0].Kind != NoteNoRoute {
		t.Fatalf("drop must emit a no-route note, got %+v", a.Notes)
	}
}

// TestHandlePacketZeroAllocs: a data packet in transit and one
// delivered locally cost the core no allocation once the driver's
// reused Actions has grown, with the known index at its bound. The
// transit case picks a remembered peer, so bestProgress runs to a hit.
func TestHandlePacketZeroAllocs(t *testing.T) {
	c := testCore(1000)
	pred := testPeer(500)
	c.InstallRing([]Peer{testPeer(2000), testPeer(3000), testPeer(4000)}, &pred)
	for i := 0; i < maxKnown; i++ {
		c.Learn(testPeer(uint64(10000 + i)))
	}
	for _, tc := range []struct {
		name string
		dst  uint64
		want NoteKind
	}{
		{"transit", 10050, NoteForward},
		{"deliver", 1000, NoteDeliver},
	} {
		pkt := dataTo(tc.dst)
		pkt.Payload = make([]byte, 64)
		var a Actions
		run := func() {
			a.Reset()
			pkt.TTL = wire.DefaultTTL
			c.HandlePacket(pkt, "peer:77", &a)
		}
		if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
			t.Errorf("%s: HandlePacket allocates %.2f per op, want 0", tc.name, allocs)
		}
		if len(a.Notes) != 1 || a.Notes[0].Kind != tc.want {
			t.Fatalf("%s: notes %+v, want one %v", tc.name, a.Notes, tc.want)
		}
		if tc.want == NoteForward && a.Sends[0].Addr != "peer:10050" {
			t.Fatalf("transit left for %q, want the remembered peer:10050", a.Sends[0].Addr)
		}
	}
}

// TestForwardTieKeepsRingPointer: ring pointers are offered first and a
// cached peer must be strictly closer to win, so when the known index's
// winner is a ring pointer the ring pointer's entry carries the packet.
func TestForwardTieKeepsRingPointer(t *testing.T) {
	c := testCore(1000)
	c.Learn(Peer{ID: ident.FromUint64(2999), Addr: "cache:2999"})
	c.InstallRing([]Peer{{ID: ident.FromUint64(2999), Addr: "ring:2999"}}, nil)
	if got := forwardsTo(t, c, 3000); got != "ring:2999" {
		t.Fatalf("forwarded to %q, want the ring pointer's entry on a tie", got)
	}
}

// TestForwardHonoursExclude: the barred identifier takes the packet
// neither as ring pointer nor as cached peer.
func TestForwardHonoursExclude(t *testing.T) {
	c := testCore(1000)
	c.InstallRing([]Peer{testPeer(2999)}, nil)
	c.Learn(testPeer(2999))
	c.Learn(testPeer(2500))
	var a Actions
	c.forwardExcept(dataTo(3000), ident.FromUint64(2999), &a)
	if got := sendAddrs(&a); len(got) != 1 || got[0] != "peer:2500" {
		t.Fatalf("excluded forward went to %v, want peer:2500", got)
	}
	a.Reset()
	c.forwardExcept(dataTo(3000), ident.FromUint64(2500), &a)
	if got := sendAddrs(&a); len(got) != 1 || got[0] != "peer:2999" {
		t.Fatalf("forward excluding another peer went to %v, want peer:2999", got)
	}
}

// answerStabilizes plays every stabilize target in a except skip: each
// replies naming c as its predecessor, with nothing after it.
func answerStabilizes(c *Core, a *Actions, skip ident.ID) {
	var replies []*wire.Packet
	for _, snd := range a.Sends {
		if snd.Pkt.Type == wire.TypeStabilize && snd.Pkt.Dst != skip {
			replies = append(replies, &wire.Packet{
				Type: wire.TypeStabilizeReply, TTL: wire.DefaultTTL,
				Dst: c.id, Src: snd.Pkt.Dst, ReqID: snd.Pkt.ReqID,
				Payload: EncodePeers([]Peer{{ID: c.id, Addr: c.addr}}),
			})
		}
	}
	for _, r := range replies {
		c.HandlePacket(r, testPeer(r.Src.Low64()).Addr, new(Actions))
	}
}

// TestForwardSkipsSuspectUntilItsOwnPacket: a peer this core holds
// evidence against — evicted as successor, cleared as predecessor, or
// silent to a repair probe — stays in known but takes no packet from
// the pointer cache until a packet of its own arrives.
func TestForwardSkipsSuspectUntilItsOwnPacket(t *testing.T) {
	t.Run("evicted successor", func(t *testing.T) {
		c := testCore(1000)
		pred := testPeer(500)
		c.InstallRing([]Peer{testPeer(2999), testPeer(5000)}, &pred)
		for _, v := range []uint64{500, 2500, 2999, 5000} {
			c.Learn(testPeer(v))
		}
		var a Actions
		for r := 0; r <= c.liveness.Multiplier; r++ {
			c.TickLiveness(&a)
		}
		if s, _ := c.Successor(); s.ID != ident.FromUint64(5000) {
			t.Fatalf("successor after liveness eviction = %v, want 5000", s.ID)
		}
		if got := forwardsTo(t, c, 3000); got != "peer:2500" {
			t.Fatalf("forwarded to %q, want peer:2500 around the evicted successor", got)
		}
		c.HandlePacket(&wire.Packet{Type: wire.TypeLivenessReply, TTL: wire.DefaultTTL,
			Dst: c.id, Src: ident.FromUint64(2999), ReqID: 1}, "peer:2999", &a)
		if got := forwardsTo(t, c, 3000); got != "peer:2999" {
			t.Fatalf("forwarded to %q, want peer:2999 once its own reply arrived", got)
		}
	})
	t.Run("cleared predecessor", func(t *testing.T) {
		c := suspectPredecessor(t)
		c.HandlePacket(&wire.Packet{Type: wire.TypeLiveness, TTL: wire.DefaultTTL,
			Dst: c.id, Src: ident.FromUint64(500), ReqID: 1}, "peer:500", new(Actions))
		if got := forwardsTo(t, c, 600); got != "peer:500" {
			t.Fatalf("forwarded to %q, want peer:500 once its own probe arrived", got)
		}
	})
	t.Run("unanswered probe", func(t *testing.T) {
		c := testCore(1000)
		c.InstallRing([]Peer{testPeer(2000)}, nil)
		c.Learn(testPeer(2000))
		c.Learn(testPeer(2999)) // the only peer a repair probe may pick
		var a Actions
		c.TickStabilize(&a)
		if got := forwardsTo(t, c, 3000); got != "peer:2999" {
			t.Fatalf("forwarded to %q, want peer:2999 while its probe is still young", got)
		}
		a.Reset()
		c.TickStabilize(&a) // the probe went unanswered for a round
		if got := forwardsTo(t, c, 3000); got != "peer:2000" {
			t.Fatalf("forwarded to %q, want ring pointer 2000 past the silent probe target", got)
		}
		answerStabilizes(c, &a, ident.FromUint64(2000)) // 2999 answers the second probe
		if got := forwardsTo(t, c, 3000); got != "peer:2999" {
			t.Fatalf("forwarded to %q, want peer:2999 once it answered", got)
		}
	})
}

// suspectPredecessor builds core 1000 whose predecessor 500 went silent
// long enough to be cleared, answering every other stabilize and every
// repair probe until the round that clears it — so the mark comes from
// the clearing alone.
func suspectPredecessor(t *testing.T) *Core {
	t.Helper()
	c := testCore(1000)
	pred := testPeer(500)
	c.InstallRing([]Peer{testPeer(2000)}, &pred)
	c.Learn(testPeer(500)) // the only peer a repair probe may pick
	c.Learn(testPeer(2000))
	if got := forwardsTo(t, c, 600); got != "peer:500" {
		t.Fatalf("forwarded to %q, want predecessor 500", got)
	}
	var a Actions
	for r := 0; r <= predFailThreshold; r++ {
		a.Reset()
		c.TickStabilize(&a)
		if _, ok := c.Predecessor(); ok {
			answerStabilizes(c, &a, ident.ID{})
		} else {
			answerStabilizes(c, &a, pred.ID)
		}
	}
	if _, ok := c.Predecessor(); ok {
		t.Fatal("predecessor not cleared after predFailThreshold silent rounds")
	}
	if got := forwardsTo(t, c, 600); got != "peer:2000" {
		t.Fatalf("forwarded to %q, want ring pointer 2000 past the cleared predecessor", got)
	}
	return c
}

// TestForwardSuspectNotClearedByGossip: hearsay about a suspect peer —
// here the successor gossiping it in a stabilize request — leaves the
// mark in place.
func TestForwardSuspectNotClearedByGossip(t *testing.T) {
	c := suspectPredecessor(t)
	c.HandlePacket(&wire.Packet{Type: wire.TypeStabilize, TTL: wire.DefaultTTL,
		Dst: c.id, Src: ident.FromUint64(2000), ReqID: 7,
		Payload: EncodePeers([]Peer{testPeer(2000), testPeer(500)})}, "peer:2000", new(Actions))
	if got := forwardsTo(t, c, 600); got != "peer:2000" {
		t.Fatalf("forwarded to %q after gossip, want peer:2000: hearsay must not clear the mark", got)
	}
}

// stabilizeReply registers reqID as outstanding at c and returns
// responder's answer to it: list is the responder's predecessor, then
// its successors.
func stabilizeReply(c *Core, responder, reqID uint64, list ...uint64) *wire.Packet {
	es := make([]Peer, 0, len(list))
	for _, v := range list {
		es = append(es, testPeer(v))
	}
	c.noteStab(reqID)
	return &wire.Packet{Type: wire.TypeStabilizeReply, TTL: wire.DefaultTTL,
		Dst: c.id, Src: ident.FromUint64(responder), ReqID: reqID, Payload: EncodePeers(es)}
}

func groupIDs(c *Core) []uint64 {
	out := make([]uint64, 0, len(c.succs))
	for _, p := range c.succs {
		out = append(out, p.ID.Low64())
	}
	return out
}

// TestProbeReplyLeavesTailAlone: only the current successor's reply
// rebuilds the successor group's tail. A repair probe's responder lies
// anywhere on the ring, so its reply may splice a closer head in but
// never replaces the tail with its own neighbours.
func TestProbeReplyLeavesTailAlone(t *testing.T) {
	c := testCore(1000)
	c.InstallRing([]Peer{testPeer(2000), testPeer(3000), testPeer(4000)}, nil)
	var a Actions
	c.HandlePacket(stabilizeReply(c, 7000, 101, 6000, 8000, 9000), "peer:7000", &a)
	if got := groupIDs(c); !reflect.DeepEqual(got, []uint64{2000, 3000, 4000}) {
		t.Fatalf("group after a far probe reply = %v, want [2000 3000 4000]", got)
	}
	c.HandlePacket(stabilizeReply(c, 7000, 102, 1500, 8000, 9000), "peer:7000", &a)
	if got := groupIDs(c); !reflect.DeepEqual(got, []uint64{1500, 2000, 3000}) {
		t.Fatalf("group after a probe reply naming 1500 = %v, want [1500 2000 3000]", got)
	}
	c.HandlePacket(stabilizeReply(c, 1500, 103, 1000, 2500, 3500), "peer:1500", &a)
	if got := groupIDs(c); !reflect.DeepEqual(got, []uint64{1500, 2500, 3500}) {
		t.Fatalf("group after the successor's reply = %v, want [1500 2500 3500]", got)
	}
}

// TestStabilizeTickEvictsSilentSuccessor drives the stabilize detector
// to its threshold with no replies and checks the eviction is emitted
// exactly once, with the stabilize-timeout reason, and that the group
// shifts down.
func TestStabilizeTickEvictsSilentSuccessor(t *testing.T) {
	c := testCore(1000)
	c.InstallRing([]Peer{testPeer(2000), testPeer(3000)}, nil)
	var a Actions
	evictions := 0
	for round := 0; round < succFailThreshold+2; round++ {
		a.Reset()
		c.TickStabilize(&a)
		for _, n := range a.Notes {
			if n.Kind == NoteSuccEvicted {
				evictions++
				if n.Reason != ReasonStabilizeTimeout {
					t.Fatalf("eviction reason = %q, want %q", n.Reason, ReasonStabilizeTimeout)
				}
				if n.Peer != ident.FromUint64(2000) {
					t.Fatalf("evicted %v, want 2000", n.Peer)
				}
			}
		}
	}
	if evictions != 1 {
		t.Fatalf("evictions = %d, want exactly 1", evictions)
	}
	if s, ok := c.Successor(); !ok || s.ID != ident.FromUint64(3000) {
		t.Fatalf("successor after eviction = %+v %v, want 3000", s, ok)
	}
	if _, dead := c.quar[ident.FromUint64(2000)]; !dead {
		t.Fatal("evicted successor must be quarantined")
	}
}

// TestJoinSpliceAcrossTwoCores runs the join handshake core-to-core by
// hand: the bootstrap serves the join, the joiner applies the reply,
// and both ends point at each other (the two-node ring).
func TestJoinSpliceAcrossTwoCores(t *testing.T) {
	boot := testCore(100)
	boot.Bootstrap()
	joiner := testCore(200)

	var a Actions
	id := joiner.NextReqID()
	joiner.StartJoin(id, boot.addr, &a)
	if len(a.Sends) != 1 || a.Sends[0].Addr != boot.addr {
		t.Fatalf("join must send one request to the bootstrap, got %+v", a.Sends)
	}
	req := a.Sends[0].Pkt

	var b Actions
	boot.HandlePacket(req, joiner.addr, &b)
	var reply *wire.Packet
	for _, s := range b.Sends {
		if s.Pkt.Type == wire.TypeJoinReply {
			reply = s.Pkt
		}
	}
	if reply == nil {
		t.Fatalf("bootstrap did not reply to the join: %+v", b.Sends)
	}
	served := false
	for _, n := range b.Notes {
		if n.Kind == NoteJoinServed {
			served = true
		}
	}
	if !served {
		t.Fatal("bootstrap must note the served join")
	}

	a.Reset()
	joiner.HandlePacket(reply, boot.addr, &a)
	if len(a.Joins) != 1 || a.Joins[0].ReqID != id || a.Joins[0].Err != nil {
		t.Fatalf("join completion = %+v, want ReqID %d with nil error", a.Joins, id)
	}
	if s, ok := joiner.Successor(); !ok || s.ID != boot.id {
		t.Fatal("joiner did not adopt the bootstrap as successor")
	}
	if p, ok := joiner.Predecessor(); !ok || p.ID != boot.id {
		t.Fatal("joiner did not adopt the bootstrap as predecessor")
	}
	if s, ok := boot.Successor(); !ok || s.ID != joiner.id {
		t.Fatal("bootstrap did not adopt the joiner as successor")
	}
	if p, ok := boot.Predecessor(); !ok || p.ID != joiner.id {
		t.Fatal("bootstrap did not adopt the joiner as predecessor")
	}

	// A duplicate (retransmitted) reply for the completed request is
	// ignored: the attempt is no longer pending.
	a.Reset()
	joiner.HandlePacket(reply, boot.addr, &a)
	if len(a.Joins) != 0 {
		t.Fatalf("stale join reply re-completed the attempt: %+v", a.Joins)
	}
}

// TestStaleStabilizeReplyIgnoredByCore pins the reply window at the
// core level: a reply whose request ID was never issued must not mutate
// ring state.
func TestStaleStabilizeReplyIgnoredByCore(t *testing.T) {
	c := testCore(1000)
	c.InstallRing([]Peer{testPeer(2000)}, nil)
	tempting := ident.FromUint64(1001) // would win adoption if accepted
	forged := &wire.Packet{
		Type: wire.TypeStabilizeReply, TTL: wire.DefaultTTL,
		Dst: c.id, Src: tempting, ReqID: 0xdead,
		Payload: EncodePeers([]Peer{{ID: tempting, Addr: "peer:evil"}}),
	}
	var a Actions
	c.HandlePacket(forged, "peer:evil", &a)
	// ID 0 marks a free or answered slot, never a request.
	forged.ReqID = 0
	c.HandlePacket(forged, "peer:evil", &a)
	// An answered request's second reply, and the reply to a request
	// maxRecentStab newer ones pushed out of the window, are stale too.
	c.HandlePacket(stabilizeReply(c, 2000, 5, 1000), "peer:2000", &a)
	forged.ReqID = 5
	c.HandlePacket(forged, "peer:evil", &a)
	for id := uint64(6); id <= 6+maxRecentStab; id++ {
		c.noteStab(id)
	}
	forged.ReqID = 6
	c.HandlePacket(forged, "peer:evil", &a)
	if s, _ := c.Successor(); s.ID != ident.FromUint64(2000) {
		t.Fatalf("stale reply mutated successor to %v", s.ID)
	}
	// The oldest request still in the window is answered.
	forged.ReqID = 7
	c.HandlePacket(forged, "peer:evil", &a)
	if s, _ := c.Successor(); s.ID != tempting {
		t.Fatalf("reply to the oldest request in the window ignored: successor %v", s.ID)
	}
}
