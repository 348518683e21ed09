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

// TestForwardFallsBackToKnownIndex: when no ring pointer makes greedy
// progress, the forwarder consults the sorted known index instead of
// dropping, and respects the exclusion.
func TestForwardFallsBackToKnownIndex(t *testing.T) {
	c := testCore(1000)
	c.InstallRing([]Peer{testPeer(5000)}, nil) // overshoots dst: no ring progress
	c.Learn(testPeer(500))
	c.Learn(testPeer(2500))
	c.Learn(testPeer(2999))

	pkt := &wire.Packet{
		Type: wire.TypeData, TTL: wire.DefaultTTL,
		Dst: ident.FromUint64(3000), Src: ident.FromUint64(1),
	}
	var a Actions
	c.ForwardData(pkt, &a)
	if got := sendAddrs(&a); len(got) != 1 || got[0] != "peer:2999" {
		t.Fatalf("forwarded to %v, want known-index hop peer:2999", got)
	}
	a.Reset()
	c.forwardExcept(pkt, ident.FromUint64(2999), &a)
	if got := sendAddrs(&a); len(got) != 1 || got[0] != "peer:2500" {
		t.Fatalf("excluded forward went to %v, want peer:2500", got)
	}
	// With the destination's whole arc unknown, the packet still drops —
	// and says so in a note.
	a.Reset()
	drop := &wire.Packet{Type: wire.TypeData, TTL: wire.DefaultTTL,
		Dst: ident.FromUint64(1100), Src: ident.FromUint64(1)}
	c.ForwardData(drop, &a)
	if len(a.Sends) != 0 {
		t.Fatal("packet with no legal hop anywhere must be dropped")
	}
	if len(a.Notes) != 1 || a.Notes[0].Kind != NoteNoRoute {
		t.Fatalf("drop must emit a no-route note, got %+v", a.Notes)
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
	joiner.StartJoin(id, boot.Addr(), &a)
	if len(a.Sends) != 1 || a.Sends[0].Addr != boot.Addr() {
		t.Fatalf("join must send one request to the bootstrap, got %+v", a.Sends)
	}
	req := a.Sends[0].Pkt

	var b Actions
	boot.HandlePacket(req, joiner.Addr(), &b)
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
	joiner.HandlePacket(reply, boot.Addr(), &a)
	if len(a.Joins) != 1 || a.Joins[0].ReqID != id || a.Joins[0].Err != nil {
		t.Fatalf("join completion = %+v, want ReqID %d with nil error", a.Joins, id)
	}
	if s, ok := joiner.Successor(); !ok || s.ID != boot.ID() {
		t.Fatal("joiner did not adopt the bootstrap as successor")
	}
	if p, ok := joiner.Predecessor(); !ok || p.ID != boot.ID() {
		t.Fatal("joiner did not adopt the bootstrap as predecessor")
	}
	if s, ok := boot.Successor(); !ok || s.ID != joiner.ID() {
		t.Fatal("bootstrap did not adopt the joiner as successor")
	}
	if p, ok := boot.Predecessor(); !ok || p.ID != joiner.ID() {
		t.Fatal("bootstrap did not adopt the joiner as predecessor")
	}

	// A duplicate (retransmitted) reply for the completed request is
	// ignored: the attempt is no longer pending.
	a.Reset()
	joiner.HandlePacket(reply, boot.Addr(), &a)
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
		Dst: c.ID(), Src: tempting, ReqID: 0xdead,
		Payload: EncodePeers([]Peer{{ID: tempting, Addr: "peer:evil"}}),
	}
	var a Actions
	c.HandlePacket(forged, "peer:evil", &a)
	if s, _ := c.Successor(); s.ID != ident.FromUint64(2000) {
		t.Fatalf("stale reply mutated successor to %v", s.ID)
	}
}
