// Package proto is the transport-agnostic core of ROFL's intradomain
// protocol: one deterministic state machine implementing ring
// membership (join, Chord-style stabilization, successor/predecessor
// failure eviction, quarantine against dead-peer resurrection,
// membership gossip and repair probes) and greedy data forwarding over
// ring pointers with a pointer-cache fallback (paper §2.2, §3,
// Algorithm 2), plus BFD-style liveness negotiation.
//
// The core is pure in the systems sense: every transition is an
// explicit event — a decoded packet, a stabilize tick, a liveness tick,
// a join command — applied to in-memory state, emitting its effects as
// Actions the caller executes. There are no clocks (time arrives as
// tick events and leaves as negotiated intervals), no goroutines, no
// I/O, and no global randomness (every sampling decision draws from a
// generator seeded in Config). Two drivers stepping the same core with
// the same event sequence therefore produce byte-identical behavior —
// the property the cross-driver equivalence test pins.
//
// Drivers: internal/overlay wraps a Core in a mutex, a UDP/netem read
// loop, and real timers; internal/vring's ProtoRing steps a set of
// cores under the sim package's virtual clock. The core itself is not
// goroutine-safe — the driver serializes access.
package proto

import (
	"fmt"
	"math/rand"
	"time"

	"rofl/internal/ident"
	"rofl/internal/wire"
)

// SuccessorGroupSize is the number of successors a core keeps (§2.2
// successor-groups).
const SuccessorGroupSize = 3

const (
	// maxKnown bounds the remembered-peer set used for repair probes.
	maxKnown = 128
	// maxRecentStab bounds the window of outstanding stabilize request
	// IDs; replies outside the window are stale and ignored.
	maxRecentStab = 16
	// gossipFanout is how many randomly chosen known peers ride along in
	// each stabilize request. Ring pointers alone spread membership only
	// to ID-adjacent neighbours; gossip disseminates it globally, so that
	// after a partition every side still knows (and can probe) enough of
	// its own members to re-form — and later re-merge — a ring.
	gossipFanout = 3
)

// succFailThreshold is how many missed stabilization replies declare the
// successor dead.
const succFailThreshold = 4

// predFailThreshold is how many stabilization rounds without a stabilize
// request from the predecessor clear the predecessor pointer. It is
// higher than succFailThreshold because the signal is indirect (we rely
// on the predecessor's own timer) and a false clear briefly opens the
// ring to a worse claimant.
const predFailThreshold = 8

// quarantineRounds is how many of this core's stabilize rounds an
// evicted-as-dead peer stays barred from hearsay re-adoption. It must
// outlast the slowest purge on live peers — a predecessor pointer naming
// the corpse survives predFailThreshold+1 of the peer's rounds — with
// margin for drift between timers. Quarantine never delays a live peer's
// return: its own packets lift it immediately.
const quarantineRounds = 3 * (predFailThreshold + 1)

// Config seeds a Core. The zero value is not usable: ID and Addr
// identify the node on the ring and must be set.
type Config struct {
	// ID is the node's flat label.
	ID ident.ID
	// Addr is the node's own transport address, as peers should dial it.
	Addr string
	// Seed drives every sampling decision (gossip fanout, probe choice,
	// eviction victims). Zero derives the seed from ID, so a core's
	// sampling trace is a pure function of its identity and learn
	// history.
	Seed int64
	// Liveness shapes the BFD-style failure detector; zero fields take
	// defaults.
	Liveness LivenessParams
}

// joinAttempt is one outstanding join: the bootstrap address and the
// request packet, kept so retries reuse the same request ID.
type joinAttempt struct {
	via string
	pkt *wire.Packet
}

// Core is the protocol state machine for one node.
type Core struct {
	id   ident.ID
	addr string

	succs []Peer // successor group, ascending from id
	pred  *Peer

	// known remembers every peer this core has heard of — including
	// evicted-as-dead successors — and feeds the stabilization-time
	// repair probes that let two rings separated by a partition find
	// each other again after it heals (the paper's §3.3 ring-merge).
	// Its sorted index also serves as a pointer cache for forwarding:
	// when no ring pointer makes greedy progress, the closest
	// remembered peer is tried before dropping.
	known *peerSet
	rng   *rand.Rand

	reqSeq uint64
	// recentStab is the window of stabilize request IDs awaiting a
	// reply; replies whose ReqID is not in the window are discarded as
	// stale (reordered or duplicated by the network).
	recentStab map[uint64]struct{}
	stabFIFO   []uint64
	// quar holds peers this core itself declared dead, mapped to the
	// number of stabilize rounds the verdict still stands. While
	// quarantined, a peer cannot be re-adopted as successor from hearsay
	// (gossip and stabilize replies from third parties that have not yet
	// purged the corpse from their own pointers) — without this, small
	// rings livelock: the eviction is undone microseconds later by the
	// live peer's reply and the dead successor flaps forever. Direct
	// contact from the peer itself (a stabilize request, join, or
	// liveness packet it sent) is proof of life and lifts the quarantine
	// immediately, so a healed partition or a false positive recovers at
	// network speed.
	quar map[ident.ID]int

	pendingJoins map[uint64]*joinAttempt

	// Liveness detector state: negotiated parameters, the current
	// monitoring target, consecutive unanswered probe windows, and the
	// target's advertised receive-interval floor.
	liveness       LivenessParams
	bfdTarget      Peer
	bfdMisses      int
	bfdRemoteMinRx time.Duration
	// succMisses counts consecutive stabilization rounds without a reply
	// from the current successor; past a threshold the successor is
	// declared dead and the group shifts down (§2.2 successor-groups).
	// lastSucc remembers which successor the count applies to, so
	// adopting a different successor restarts the clock.
	succMisses int
	lastSucc   *ident.ID
	// predMisses counts consecutive stabilization rounds without hearing
	// a stabilize request from the current predecessor.
	predMisses int
}

// New builds a core from cfg. The core starts outside any ring; call
// Bootstrap to found one or StartJoin to enter an existing one.
func New(cfg Config) *Core {
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(cfg.ID.Low64())
	}
	return &Core{
		id:           cfg.ID,
		addr:         cfg.Addr,
		known:        newPeerSet(),
		rng:          rand.New(rand.NewSource(seed)),
		recentStab:   make(map[uint64]struct{}),
		quar:         make(map[ident.ID]int),
		pendingJoins: make(map[uint64]*joinAttempt),
		liveness:     cfg.Liveness.normalize(),
	}
}

// ID returns the core's flat label.
func (c *Core) ID() ident.ID { return c.id }

// Addr returns the core's own transport address.
func (c *Core) Addr() string { return c.addr }

// Bootstrap makes this core the first ring member: it is its own
// successor and predecessor.
func (c *Core) Bootstrap() {
	self := Peer{ID: c.id, Addr: c.addr}
	c.succs = []Peer{self}
	c.pred = &self
}

// Successor returns the immediate successor.
func (c *Core) Successor() (Peer, bool) {
	if len(c.succs) == 0 {
		return Peer{}, false
	}
	return c.succs[0], true
}

// Predecessor returns the predecessor pointer.
func (c *Core) Predecessor() (Peer, bool) {
	if c.pred == nil {
		return Peer{}, false
	}
	return *c.pred, true
}

// Successors returns a copy of the successor group.
func (c *Core) Successors() []Peer {
	return append([]Peer(nil), c.succs...)
}

// KnownPeers returns the size of the remembered-peer set.
func (c *Core) KnownPeers() int { return c.known.len() }

// Ring returns the core's view of the ring, for debugging:
// predecessor, self, then successors.
func (c *Core) Ring() []string {
	var out []string
	if c.pred != nil {
		out = append(out, "pred:"+c.pred.ID.Short())
	}
	out = append(out, "self:"+c.id.Short())
	for _, s := range c.succs {
		out = append(out, "succ:"+s.ID.Short())
	}
	return out
}

// InstallRing seeds ring state directly — the escape hatch drivers and
// benchmarks use to construct a known topology without running the join
// protocol. succs is copied; pred may be nil.
func (c *Core) InstallRing(succs []Peer, pred *Peer) {
	c.succs = append([]Peer(nil), succs...)
	if pred == nil {
		c.pred = nil
	} else {
		p := *pred
		c.pred = &p
	}
	c.succMisses = 0
	c.lastSucc = nil
	c.predMisses = 0
}

// Learn remembers a peer for repair probing and pointer-cache
// forwarding, evicting a random non-ring-neighbor past the capacity
// bound. Drivers use it to inject statically configured peers.
func (c *Core) Learn(p Peer) { c.learn(p) }

// NextReqID allocates a request ID from the core's single sequence,
// shared by joins, stabilizes, and probes.
func (c *Core) NextReqID() uint64 {
	c.reqSeq++
	return c.reqSeq
}

// isRingNeighbor reports whether id is one of the core's live ring
// pointers — a member of the successor group or the predecessor.
func (c *Core) isRingNeighbor(id ident.ID) bool {
	if c.pred != nil && c.pred.ID == id {
		return true
	}
	return containsID(c.succs, id)
}

// learn remembers a peer for repair probing. At the maxKnown bound an
// eviction victim is drawn from the core's seeded RNG — skipping the
// current successors and predecessor, which feed failure detection and
// repair probing and must never be silently forgotten while they are
// live ring neighbors.
func (c *Core) learn(e Peer) {
	if e.ID == c.id || e.Addr == "" {
		return
	}
	if !c.known.contains(e.ID) && c.known.len() >= maxKnown {
		victim, ok := c.known.pick(c.rng, c.isRingNeighbor)
		if !ok {
			return // everyone remembered is a ring neighbor; don't evict any of them
		}
		c.known.remove(victim.ID)
	}
	c.known.insert(e)
}

// gossip returns the stabilize-request payload: the core's own entry
// followed by up to gossipFanout remembered peers sampled by the
// core's seeded RNG over the sorted peer index.
func (c *Core) gossip(self Peer) []Peer {
	out := append(make([]Peer, 0, 1+gossipFanout), self)
	return c.known.sampleInto(out, gossipFanout, c.rng, nil)
}

// pickProbe selects a remembered peer outside the successor head to
// probe this round, drawn from the core's seeded RNG.
func (c *Core) pickProbe() (Peer, bool) {
	return c.known.pick(c.rng, func(id ident.ID) bool {
		return len(c.succs) > 0 && id == c.succs[0].ID
	})
}

// noteStab registers a stabilize request ID in the reply window,
// evicting the oldest entry past maxRecentStab.
func (c *Core) noteStab(id uint64) {
	c.recentStab[id] = struct{}{}
	c.stabFIFO = append(c.stabFIFO, id)
	if len(c.stabFIFO) > maxRecentStab {
		delete(c.recentStab, c.stabFIFO[0])
		c.stabFIFO = c.stabFIFO[1:]
	}
}

// dropSuccessor removes dead from the head of the successor group,
// shifting the group down (collapsing to a self-ring when it empties)
// and clearing a predecessor pointer naming the same peer. The dead
// peer stays in known so a later repair probe can find it again if it
// was only partitioned away. The caller owns reporting: each removal
// is noted exactly once, by whichever detector (stabilize tick or
// liveness tick) declared the death.
func (c *Core) dropSuccessor(dead Peer) {
	if len(c.succs) == 0 || c.succs[0].ID != dead.ID {
		return
	}
	c.succs = c.succs[1:]
	if len(c.succs) == 0 {
		c.succs = []Peer{{ID: c.id, Addr: c.addr}}
	}
	if c.pred != nil && c.pred.ID == dead.ID {
		c.pred = nil
	}
	c.succMisses = 0
	c.lastSucc = nil
	c.quar[dead.ID] = quarantineRounds
}

// TickStabilize runs one Chord-style stabilization round: age the
// quarantine, account predecessor and successor silence (clearing or
// evicting past their thresholds), ask the successor for its current
// predecessor with gossip riding along, and probe one remembered peer
// outside the successor group so rings that diverged — most importantly
// the two sides of a healed partition — rediscover each other and merge
// (§3.3's repair, driven by probes instead of zero-ID floods). The
// paper's virtual nodes "piggyback probes on data packets to ensure
// this state is maintained correctly" (§4.1); the driver's tick plays
// that role here.
func (c *Core) TickStabilize(a *Actions) {
	a.note(NoteStabRound, ident.ID{}, "", "")
	if len(c.succs) == 0 {
		return
	}
	self := Peer{ID: c.id, Addr: c.addr}
	// Age the quarantine: a verdict this core reached expires after
	// enough rounds for every live peer to have purged the corpse too.
	for id, left := range c.quar {
		if left <= 1 {
			delete(c.quar, id)
		} else {
			c.quar[id] = left - 1
		}
	}
	// A predecessor that has not sent us a stabilize request in many
	// rounds is dead or unreachable; clear it so a live claimant can be
	// adopted (a stale pointer would otherwise block better askers
	// forever — the Between test only admits improvements).
	if c.pred != nil && c.pred.ID != c.id {
		c.predMisses++
		if c.predMisses > predFailThreshold {
			p := *c.pred
			c.pred = nil
			c.predMisses = 0
			a.note(NotePredCleared, p.ID, p.Addr, ReasonStabilizeSilence)
		}
	}
	if c.succs[0].ID != c.id {
		// A successor that stays silent across several rounds is dead:
		// shift the group down.
		if c.lastSucc == nil || *c.lastSucc != c.succs[0].ID {
			cur := c.succs[0].ID
			c.lastSucc = &cur
			c.succMisses = 0
		}
		c.succMisses++
		if c.succMisses > succFailThreshold {
			dead := c.succs[0]
			c.dropSuccessor(dead)
			a.note(NoteSuccEvicted, dead.ID, dead.Addr, ReasonStabilizeTimeout)
		}
		if succ := c.succs[0]; succ.ID != c.id {
			id := c.NextReqID()
			c.noteStab(id)
			a.send(succ.Addr, &wire.Packet{
				Type: wire.TypeStabilize, TTL: wire.DefaultTTL,
				Dst: succ.ID, Src: c.id, ReqID: id,
				Payload: EncodePeers(c.gossip(self)),
			})
		}
	}
	if probe, ok := c.pickProbe(); ok {
		id := c.NextReqID()
		c.noteStab(id)
		a.send(probe.Addr, &wire.Packet{
			Type: wire.TypeStabilize, TTL: wire.DefaultTTL,
			Dst: probe.ID, Src: c.id, ReqID: id,
			Payload: EncodePeers(c.gossip(self)),
		})
	}
}

// LivenessInterval is the negotiated transmit interval toward the
// current monitoring target: max(local MinTx, remote advertised MinRx).
// The driver paces its liveness ticks by it.
func (c *Core) LivenessInterval() time.Duration {
	iv := c.liveness.MinTx
	if c.bfdRemoteMinRx > iv {
		iv = c.bfdRemoteMinRx
	}
	return iv
}

// TickLiveness runs one BFD detector round: account a miss window for
// the previous probe, fail the successor over once Multiplier windows
// elapsed unanswered, otherwise transmit the next probe.
func (c *Core) TickLiveness(a *Actions) {
	if len(c.succs) == 0 || c.succs[0].ID == c.id {
		c.bfdTarget = Peer{}
		c.bfdMisses = 0
		return
	}
	succ := c.succs[0]
	if c.bfdTarget.ID != succ.ID {
		// New monitoring target (join, eviction, ring repair): re-arm.
		c.bfdTarget = succ
		c.bfdMisses = 0
		c.bfdRemoteMinRx = 0
	}
	if c.bfdMisses >= c.liveness.Multiplier {
		c.dropSuccessor(succ)
		c.bfdTarget = Peer{}
		c.bfdMisses = 0
		c.bfdRemoteMinRx = 0
		a.note(NoteSuccEvicted, succ.ID, succ.Addr, ReasonLivenessTimeout)
		return
	}
	c.bfdMisses++
	a.note(NoteLivenessProbe, succ.ID, succ.Addr, "")
	a.send(succ.Addr, &wire.Packet{
		Type: wire.TypeLiveness, TTL: wire.DefaultTTL,
		Dst: succ.ID, Src: c.id, ReqID: c.NextReqID(),
		Payload: encodeLivenessAd(c.liveness),
	})
}

// StartJoin begins a join attempt under a request ID the driver
// allocated with NextReqID: the request is greedy-routed toward the
// core's own identifier through via; the predecessor that receives it
// replies with the successor set (§3.1). The attempt stays pending —
// and RetryJoin keeps retransmitting the identical packet — until the
// reply arrives (JoinResult action) or the driver gives up
// (AbortJoin). Retries reuse the request ID, so the far side may
// process the request more than once; handleJoin is idempotent.
func (c *Core) StartJoin(reqID uint64, via string, a *Actions) {
	pkt := &wire.Packet{
		Type: wire.TypeJoinRequest,
		TTL:  wire.DefaultTTL,
		Dst:  c.id,
		Src:  c.id,
		// ReqID correlates the reply; the payload carries our address so
		// the predecessor can answer and the ring can point at us.
		ReqID:   reqID,
		Payload: EncodePeers([]Peer{{ID: c.id, Addr: c.addr}}),
	}
	c.pendingJoins[reqID] = &joinAttempt{via: via, pkt: pkt}
	a.send(via, pkt)
}

// RetryJoin retransmits a pending join attempt; it reports false when
// the attempt already completed or was aborted.
func (c *Core) RetryJoin(reqID uint64, a *Actions) bool {
	at, ok := c.pendingJoins[reqID]
	if !ok {
		return false
	}
	a.send(at.via, at.pkt)
	return true
}

// AbortJoin abandons a pending join attempt (driver timeout or
// shutdown). A later reply for the same request ID is ignored as
// stale.
func (c *Core) AbortJoin(reqID uint64) {
	delete(c.pendingJoins, reqID)
}

// Originate builds a data packet for dst, carrying an optional
// capability token (§5.3), and forwards it greedily. Origination never
// delivers locally — a node does not route to itself.
func (c *Core) Originate(dst ident.ID, payload, capability []byte, a *Actions) {
	c.ForwardData(&wire.Packet{
		Type:       wire.TypeData,
		TTL:        wire.DefaultTTL,
		Dst:        dst,
		Src:        c.id,
		Capability: capability,
		Payload:    payload,
	}, a)
}

// HandlePacket applies one decoded packet to the core. The from
// address is the transport-level sender, used where the protocol
// answers the socket it heard from. Emitted Sends may alias pkt; the
// driver transmits them before reusing pkt for the next datagram.
//
//rofllint:hotpath
func (c *Core) HandlePacket(pkt *wire.Packet, from string, a *Actions) {
	switch pkt.Type {
	case wire.TypeData:
		if pkt.Dst == c.id {
			a.note(NoteDeliver, pkt.Src, from, "")
			a.Delivers = append(a.Delivers, Delivery{Src: pkt.Src, Capability: pkt.Capability, Payload: pkt.Payload})
			return
		}
		if pkt.TTL == 0 {
			a.note(NoteTTLDrop, pkt.Dst, "", "")
			return
		}
		pkt.TTL--
		c.ForwardData(pkt, a)
	case wire.TypeJoinRequest:
		c.handleJoin(pkt, a)
	case wire.TypeJoinReply:
		c.handleJoinReply(pkt, a)
	case wire.TypeAck:
		c.handleNotify(pkt)
	case wire.TypeStabilize:
		c.handleStabilize(pkt, a)
	case wire.TypeStabilizeReply:
		c.handleStabilizeReply(pkt, from)
	case wire.TypeLiveness:
		c.handleLivenessProbe(pkt, from, a)
	case wire.TypeLivenessReply:
		c.handleLivenessReply(pkt, from)
	}
}

// ForwardData implements greedy next-hop choice over the core's ring
// pointers: closest to pkt.Dst without overshooting our own position
// (Algorithm 2).
func (c *Core) ForwardData(pkt *wire.Packet, a *Actions) {
	c.forwardExcept(pkt, c.id, a)
}

// forwardExcept is ForwardData with one identifier barred as next hop
// (the core's own ID bars nothing extra). Join requests exclude the
// joiner itself: once the ring already points at a joiner whose join
// reply was lost, a retried request must reach the joiner's
// predecessor — which can answer — rather than short-circuiting to the
// joiner, which cannot.
func (c *Core) forwardExcept(pkt *wire.Packet, exclude ident.ID, a *Actions) {
	var best *Peer
	sel := ident.NewScan(c.id, pkt.Dst)
	consider := func(e *Peer) {
		if e.ID != exclude && sel.Offer(e.ID) {
			best = e
		}
	}
	for i := range c.succs {
		consider(&c.succs[i])
	}
	if c.pred != nil {
		consider(c.pred)
	}
	if best == nil {
		if e, ok := c.known.bestProgress(c.id, pkt.Dst, exclude); ok {
			// No ring pointer makes progress — before dropping, consult the
			// sorted known index for the closest remembered peer that does
			// (an O(log n) lookup). This is the pointer-cache role §2.2
			// assigns to opportunistically learned state: at worst the peer
			// is dead and the packet is lost exactly as it would have been
			// dropped here; at best it short-cuts to the destination's ring
			// segment during churn.
			a.note(NoteForward, e.ID, e.Addr, "")
			a.send(e.Addr, pkt)
			return
		}
		// We are the destination's predecessor and it is not present:
		// drop (the overlay has no parked ephemerals).
		a.note(NoteNoRoute, pkt.Dst, "", "")
		return
	}
	a.note(NoteForward, best.ID, best.Addr, "")
	a.send(best.Addr, pkt)
}

// handleJoin runs at every node a join request traverses. If the joining
// identifier falls between us and our successor, we are its predecessor:
// reply with the successor set, adopt the joiner as our new successor,
// and notify the old successor to update its predecessor. Otherwise
// forward greedily (never to the joiner itself). The splice is
// idempotent: a retransmitted request from a joiner we already adopted
// produces the same reply again and mutates nothing.
//
//rofllint:coldpath join control message, one per membership change; the splice and reply marshal are not per-packet work
func (c *Core) handleJoin(pkt *wire.Packet, a *Actions) {
	src, err := DecodePeers(pkt.Payload)
	if err != nil || len(src) != 1 {
		return
	}
	joiner := src[0]
	if joiner.ID == c.id {
		return // our own retried join found its way back; only the predecessor can answer
	}
	if len(c.succs) == 0 {
		return // not bootstrapped yet
	}
	delete(c.quar, joiner.ID) // a joiner is alive by definition
	c.learn(joiner)
	succ := c.succs[0]
	isPred := succ.ID == c.id || ident.Between(joiner.ID, c.id, succ.ID)
	if !isPred {
		if pkt.TTL == 0 {
			return
		}
		pkt.TTL--
		c.forwardExcept(pkt, joiner.ID, a)
		return
	}
	// Splice: joiner inherits our successor set; we adopt the joiner.
	reply := make([]Peer, 0, SuccessorGroupSize+1)
	reply = append(reply, Peer{ID: c.id, Addr: c.addr}) // predecessor first
	reply = append(reply, c.succs...)
	newSuccs := make([]Peer, 0, SuccessorGroupSize)
	newSuccs = append(newSuccs, joiner)
	for _, e := range c.succs {
		if len(newSuccs) >= SuccessorGroupSize {
			break
		}
		if e.ID != joiner.ID && e.ID != c.id {
			newSuccs = append(newSuccs, e)
		}
	}
	c.succs = newSuccs
	if succ.ID == c.id {
		// We were alone; in a two-node ring the joiner is also our
		// predecessor.
		c.pred = &joiner
		c.predMisses = 0
	}
	a.note(NoteJoinServed, joiner.ID, joiner.Addr, "")
	a.send(joiner.Addr, &wire.Packet{
		Type: wire.TypeJoinReply, TTL: wire.DefaultTTL,
		Dst: joiner.ID, Src: c.id, ReqID: pkt.ReqID,
		Payload: EncodePeers(reply),
	})
	// Tell the old successor its predecessor changed. On a retransmitted
	// request the old successor is the joiner itself — nothing to notify.
	if succ.ID != c.id && succ.ID != joiner.ID {
		a.send(succ.Addr, &wire.Packet{
			Type: wire.TypeAck, TTL: wire.DefaultTTL,
			Dst: succ.ID, Src: c.id,
			Payload: EncodePeers([]Peer{joiner}),
		})
	}
}

// handleJoinReply completes a pending join attempt: the first reply
// carrying a pending request ID installs the ring pointers; stale,
// duplicated, or aborted replies are ignored.
//
//rofllint:coldpath join control message, one per membership change, not per forwarded packet
func (c *Core) handleJoinReply(pkt *wire.Packet, a *Actions) {
	if _, ok := c.pendingJoins[pkt.ReqID]; !ok {
		return // stale, duplicated, or unsolicited reply
	}
	delete(c.pendingJoins, pkt.ReqID)
	err := c.applyJoinReply(pkt)
	if err == nil {
		a.note(NoteJoinDone, pkt.Src, "", "")
	}
	a.Joins = append(a.Joins, JoinResult{ReqID: pkt.ReqID, Err: err})
}

// applyJoinReply installs the predecessor and successor set from a join
// reply: predecessor first, then successors (§3.1's splice answer).
func (c *Core) applyJoinReply(pkt *wire.Packet) error {
	es, err := DecodePeers(pkt.Payload)
	if err != nil || len(es) < 1 {
		return fmt.Errorf("proto: malformed join reply")
	}
	pred := es[0]
	for _, e := range es {
		c.learn(e)
	}
	if pred.ID != c.id {
		c.pred = &pred
		c.predMisses = 0
	}
	succs := make([]Peer, 0, SuccessorGroupSize)
	for _, e := range es[1:] {
		if e.ID == c.id {
			continue
		}
		succs = append(succs, e)
		if len(succs) >= SuccessorGroupSize {
			break
		}
	}
	if len(succs) == 0 {
		// Two-node ring: our predecessor is also our successor.
		succs = append(succs, pred)
	}
	c.succs = succs
	return nil
}

// handleNotify processes the ring-splice notification a predecessor
// sends its old successor after adopting a joiner.
//
//rofllint:coldpath ring-splice notification, one per membership change, not per forwarded packet
func (c *Core) handleNotify(pkt *wire.Packet) {
	es, err := DecodePeers(pkt.Payload)
	if err != nil || len(es) != 1 {
		return
	}
	p := es[0]
	if p.ID == c.id {
		return // a stale notification must never make us our own predecessor
	}
	c.learn(p)
	// Adopt the notified predecessor only when it improves on the
	// current one — unconditional adoption would let stale notifications
	// from concurrent joins regress the ring.
	if c.pred == nil || c.pred.ID == c.id || ident.Between(p.ID, c.pred.ID, c.id) {
		c.pred = &p
		c.predMisses = 0
	}
}

// handleStabilize answers a stabilize request: learn the asker and its
// gossip, adopt the asker as predecessor or successor where it
// improves the ring, and reply with our predecessor and successor set.
//
//rofllint:coldpath stabilize control message, one per ring-maintenance round, not per forwarded packet
func (c *Core) handleStabilize(pkt *wire.Packet, a *Actions) {
	es, err := DecodePeers(pkt.Payload)
	if err != nil || len(es) < 1 {
		return
	}
	// The request carries the asker first, then gossiped peers.
	asker := es[0]
	delete(c.quar, asker.ID) // the asker spoke for itself: proof of life
	for _, e := range es {
		c.learn(e)
	}
	// The asker believes we are its successor; adopt it as predecessor
	// when it falls between our current predecessor and us. Hearing from
	// the current predecessor proves it alive.
	if asker.ID != c.id && (c.pred == nil || ident.Between(asker.ID, c.pred.ID, c.id)) {
		p := asker
		c.pred = &p
		c.predMisses = 0
	} else if c.pred != nil && asker.ID == c.pred.ID {
		c.predMisses = 0
	}
	// Symmetric repair: an asker that falls between us and our current
	// successor is a better successor — adopt it. This is how the
	// responder side of a repair probe re-links a merged ring.
	if len(c.succs) > 0 && asker.ID != c.id &&
		ident.Between(asker.ID, c.id, c.succs[0].ID) && asker.ID != c.succs[0].ID {
		c.succs = append([]Peer{asker}, c.succs...)
		if len(c.succs) > SuccessorGroupSize {
			c.succs = c.succs[:SuccessorGroupSize]
		}
	}
	reply := make([]Peer, 0, 1+len(c.succs))
	if c.pred != nil {
		reply = append(reply, *c.pred)
	} else {
		reply = append(reply, Peer{ID: c.id, Addr: c.addr})
	}
	reply = append(reply, c.succs...)
	a.send(asker.Addr, &wire.Packet{
		Type: wire.TypeStabilizeReply, TTL: wire.DefaultTTL,
		Dst: asker.ID, Src: c.id, ReqID: pkt.ReqID,
		Payload: EncodePeers(reply),
	})
}

// handleStabilizeReply folds a stabilize answer into the ring: splice
// in better successors the responder reported, and refresh the
// successor group. Replies outside the recent-request window are
// stale and ignored; quarantined peers cannot be resurrected by
// hearsay.
//
//rofllint:coldpath stabilize control message, one per ring-maintenance round, not per forwarded packet
func (c *Core) handleStabilizeReply(pkt *wire.Packet, from string) {
	es, err := DecodePeers(pkt.Payload)
	if err != nil || len(es) < 1 {
		return
	}
	responder := Peer{ID: pkt.Src, Addr: from}
	if _, ok := c.recentStab[pkt.ReqID]; !ok {
		return // stale, duplicated, or unsolicited reply
	}
	delete(c.recentStab, pkt.ReqID)
	delete(c.quar, pkt.Src) // the responder spoke for itself: proof of life
	c.learn(responder)
	for _, e := range es {
		c.learn(e)
	}
	if len(c.succs) == 0 {
		return
	}
	if pkt.Src == c.succs[0].ID {
		c.succMisses = 0 // the successor is alive
	}
	// Adopt any candidate — the responder itself or anyone it reported —
	// that falls between us and our current successor: the reply to a
	// normal stabilize tightens the ring exactly as before, and the
	// reply to a repair probe splices a foreign ring's nodes in.
	candidates := append([]Peer{responder}, es...)
	for _, cand := range candidates {
		if cand.ID == c.id {
			continue
		}
		if _, dead := c.quar[cand.ID]; dead {
			continue // hearsay cannot resurrect a peer this core saw die
		}
		if ident.Between(cand.ID, c.id, c.succs[0].ID) && cand.ID != c.succs[0].ID {
			c.succs = append([]Peer{cand}, c.succs...)
		}
	}
	// Refresh the successor group: head, then the responder and its own
	// successor list in order. Built in a fresh slice — appending into
	// c.succs' backing array would alias state a driver may have handed
	// out.
	group := append(make([]Peer, 0, SuccessorGroupSize), c.succs[0])
	for _, e := range append([]Peer{responder}, es[1:]...) {
		if len(group) >= SuccessorGroupSize {
			break
		}
		if e.ID == c.id || containsID(group, e.ID) {
			continue
		}
		if _, dead := c.quar[e.ID]; dead {
			continue // keep quarantined corpses out of the fallback group too
		}
		group = append(group, e)
	}
	c.succs = group
}

// handleLivenessProbe answers a probe immediately with this core's own
// advertisement — the responder side never times anything, it only
// proves it is alive (BFD asynchronous mode with the passive role). A
// probe from the current predecessor also refreshes the predecessor
// liveness signal the stabilize detector reads.
//
//rofllint:coldpath liveness control message, paced by the BFD interval, not per forwarded packet
func (c *Core) handleLivenessProbe(pkt *wire.Packet, from string, a *Actions) {
	delete(c.quar, pkt.Src) // a probing peer is alive by definition
	if c.pred != nil && pkt.Src == c.pred.ID {
		c.predMisses = 0
	}
	a.send(from, &wire.Packet{
		Type: wire.TypeLivenessReply, TTL: wire.DefaultTTL,
		Dst: pkt.Src, Src: c.id, ReqID: pkt.ReqID,
		Payload: encodeLivenessAd(c.liveness),
	})
}

// handleLivenessReply clears the miss window when the answer comes from
// the successor currently being monitored, and adopts the successor's
// advertised MinRx as the negotiation floor. A liveness reply is also
// proof enough for the stabilize-tick detector: a successor that
// answers probes must not be evicted for losing stabilize replies.
//
//rofllint:coldpath liveness control message, paced by the BFD interval, not per forwarded packet
func (c *Core) handleLivenessReply(pkt *wire.Packet, from string) {
	delete(c.quar, pkt.Src) // an answering peer is alive by definition
	if c.bfdTarget.ID != pkt.Src {
		return // stale reply from a previous target
	}
	c.bfdMisses = 0
	if ad, ok := decodeLivenessAd(pkt.Payload); ok {
		c.bfdRemoteMinRx = ad.MinRx
	}
	if len(c.succs) > 0 && c.succs[0].ID == pkt.Src {
		c.succMisses = 0
	}
	c.learn(Peer{ID: pkt.Src, Addr: from})
}
