package vring

import (
	"rofl/internal/ident"
	"rofl/internal/proto"
	"rofl/internal/sim"
	"rofl/internal/wire"
)

// ProtoRing is the simulation driver of the transport-agnostic protocol
// core: the same proto.Core state machine internal/overlay drives over
// real sockets, here stepped on a virtual clock. Every emitted packet is
// marshaled to wire bytes and queued as a datagram arriving one constant
// latency later, every maintenance tick is fed in lockstep index order,
// and every transition's notes land in one shared journal — so a seeded
// run is a pure function of its schedule, byte-comparable against the
// same schedule driven through a netem fabric (the cross-driver
// equivalence test in internal/proto).
//
// With one latency for every link, arrival order is send order, so the
// fabric is a plain FIFO of in-flight datagrams rather than an event
// heap. The driver is single-threaded by construction: cores only
// transition while the queue drains or inside the caller's own step
// methods, so no lock guards them.
type ProtoRing struct {
	latency sim.Time
	now     sim.Time
	// inflight holds the datagrams on the wire in arrival order; run
	// drains it to quiescence.
	inflight []datagram
	journal  *proto.Journal
	intern   *ident.Intern
	slots    []*protoSlot
	// acts is the one Actions buffer every transition reuses; dispatch
	// drains it (marshaling sends into independent byte slices) before
	// the next transition runs.
	acts proto.Actions
}

// protoSlot is one node position. The identity is permanent across
// kill/restart cycles and its interned handle doubles as the slot index
// and the fabric address (proto.HandleAddr); the core is
// per-incarnation, nil while killed.
type protoSlot struct {
	index int
	id    ident.ID
	addr  string
	core  *proto.Core
}

// datagram is one marshaled packet on the wire: its bytes are
// independent of the sender's state from the moment it is sent.
type datagram struct {
	at       sim.Time // arrival time
	to, from string
	buf      []byte
}

// NewProtoRing builds an empty driver. Packets arrive latency virtual
// milliseconds after they are sent; journal (optional) receives every
// transition's notes.
func NewProtoRing(latency sim.Time, journal *proto.Journal) *ProtoRing {
	if journal == nil {
		journal = &proto.Journal{}
	}
	return &ProtoRing{
		latency: latency,
		journal: journal,
		intern:  ident.NewIntern(),
	}
}

// AddNode attaches a node with the given identity and returns its slot
// index — the identity's dense intern handle, which also derives the
// node's fabric address. Addresses never appear in the journal, so runs
// remain byte-comparable against drivers with transport-assigned
// addresses. The core's sampling seed derives from the identity,
// exactly as the overlay driver derives it. Adding the same identity
// twice panics: a slot's handle must stay unique.
func (r *ProtoRing) AddNode(id ident.ID) int {
	h := r.intern.Handle(id)
	if int(h) != len(r.slots) {
		panic("vring: ProtoRing.AddNode called twice with one identity")
	}
	addr := proto.HandleAddr(h)
	s := &protoSlot{
		index: int(h),
		id:    id,
		addr:  addr,
		core:  proto.New(proto.Config{ID: id, Addr: addr}),
	}
	r.slots = append(r.slots, s)
	return s.index
}

// Alive reports whether slot i currently runs a core.
func (r *ProtoRing) Alive(i int) bool { return r.slots[i].core != nil }

// Core returns slot i's current core, nil while killed.
func (r *ProtoRing) Core(i int) *proto.Core { return r.slots[i].core }

// Journal returns the accumulated event journal.
func (r *ProtoRing) Journal() string { return r.journal.String() }

// Bootstrap founds the ring at slot i.
func (r *ProtoRing) Bootstrap(i int) {
	r.journal.Markf("bootstrap %d", i)
	r.slots[i].core.Bootstrap()
}

// Join splices slot i into the ring through slot via and runs the
// fabric to quiescence. With a lossless virtual fabric the first
// request round-trip completes the join, so no retry machinery runs.
func (r *ProtoRing) Join(i, via int) {
	s := r.slots[i]
	r.journal.Markf("join %d via %d", i, via)
	s.core.StartJoin(s.core.NextReqID(), r.slots[via].addr, &r.acts)
	r.dispatch(s)
	r.run()
}

// Kill crashes slot i: the core vanishes and packets in flight toward
// it are dropped on arrival, exactly like datagrams to a closed socket.
func (r *ProtoRing) Kill(i int) {
	r.journal.Markf("kill %d", i)
	r.slots[i].core = nil
}

// Restart brings slot i back — same identity, same address, a fresh
// core with the same derived seed — and rejoins it through slot via.
func (r *ProtoRing) Restart(i, via int) {
	s := r.slots[i]
	r.journal.Markf("restart %d", i)
	s.core = proto.New(proto.Config{ID: s.id, Addr: s.addr})
	r.Join(i, via)
}

// TickStabilize feeds one stabilization tick to every live slot in
// index order, then runs the fabric to quiescence — one lockstep
// maintenance round.
func (r *ProtoRing) TickStabilize() { r.tickAll("tick", (*proto.Core).TickStabilize) }

// TickLiveness feeds one BFD liveness tick to every live slot in index
// order, then runs the fabric to quiescence.
func (r *ProtoRing) TickLiveness() { r.tickAll("bfd", (*proto.Core).TickLiveness) }

func (r *ProtoRing) tickAll(mark string, tick func(*proto.Core, *proto.Actions)) {
	for _, s := range r.slots {
		if s.core == nil {
			continue
		}
		r.journal.Markf("%s %d", mark, s.index)
		tick(s.core, &r.acts)
		r.dispatch(s)
	}
	r.run()
}

// Send originates a data payload from slot i toward dst and runs the
// fabric to quiescence.
func (r *ProtoRing) Send(i int, dst ident.ID, payload []byte) {
	s := r.slots[i]
	r.journal.Markf("send %d", s.index)
	s.core.Originate(dst, payload, nil, &r.acts)
	r.dispatch(s)
	r.run()
}

// run delivers in-flight datagrams in arrival order — including those
// the deliveries themselves send — until none remain. A datagram toward
// an unknown or crashed slot, or one that does not decode, is dropped
// like UDP.
func (r *ProtoRing) run() {
	for len(r.inflight) > 0 {
		d := r.inflight[0]
		r.inflight = r.inflight[1:]
		r.now = d.at
		h, ok := proto.ParseHandleAddr(d.to)
		if !ok || int(h) >= len(r.slots) || r.slots[h].core == nil {
			continue
		}
		var pkt wire.Packet
		if err := pkt.DecodeFromBytes(d.buf); err != nil {
			continue
		}
		dst := r.slots[h]
		dst.core.HandlePacket(&pkt, d.from, &r.acts)
		r.dispatch(dst)
	}
}

// dispatch records one transition's notes and queues its sends: each
// packet is marshaled now (the bytes in flight are independent of the
// sender's state, as on a real wire) and arrives after the constant
// fabric latency. The shared Actions buffer is drained for the next
// transition.
func (r *ProtoRing) dispatch(s *protoSlot) {
	r.journal.Record(&r.acts)
	for i := range r.acts.Sends {
		snd := r.acts.Sends[i]
		buf, err := snd.Pkt.Marshal()
		if err != nil {
			continue // malformed packets vanish, as a socket would reject them
		}
		r.inflight = append(r.inflight, datagram{at: r.now + r.latency, to: snd.Addr, from: s.addr, buf: buf})
	}
	r.acts.Reset()
}
