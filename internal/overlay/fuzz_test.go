package overlay

import (
	"testing"

	"rofl/internal/ident"
	"rofl/internal/netem"
	"rofl/internal/wire"
)

// FuzzHandleRequest throws arbitrary datagrams at the overlay's control-
// message dispatcher, mirroring the read loop exactly: bytes that decode
// as a wire.Packet are handed to handle. The node must absorb any
// decodable packet — unknown request IDs, zero TTLs, bogus stabilize
// replies, self-addressed joins — without panicking or blocking the
// read path.
func FuzzHandleRequest(f *testing.F) {
	self := ident.FromString("fuzz-node")
	peer := ident.FromString("fuzz-peer")

	// Seed the corpus with one well-formed packet of every control kind
	// the dispatcher handles, plus a data packet for each forwarding arm.
	seed := func(p wire.Packet) {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(wire.Packet{Type: wire.TypeData, TTL: 8, Dst: self, Src: peer, Payload: []byte("to-self")})
	seed(wire.Packet{Type: wire.TypeData, TTL: 8, Dst: peer, Src: peer, Payload: []byte("to-forward")})
	seed(wire.Packet{Type: wire.TypeData, TTL: 0, Dst: peer, Src: peer, Payload: []byte("ttl-expired")})
	seed(wire.Packet{Type: wire.TypeJoinRequest, TTL: 8, Dst: self, Src: peer, ReqID: 7})
	seed(wire.Packet{Type: wire.TypeJoinReply, TTL: 8, Dst: peer, Src: self, ReqID: 7})
	seed(wire.Packet{Type: wire.TypeAck, TTL: 8, Dst: self, Src: peer})
	seed(wire.Packet{Type: wire.TypeStabilize, TTL: 8, Dst: self, Src: peer, ReqID: 9})
	seed(wire.Packet{Type: wire.TypeStabilizeReply, TTL: 8, Dst: self, Src: peer, ReqID: 9})
	seed(wire.Packet{Type: wire.TypeCapRequest, TTL: 8, Dst: self, Src: peer, Capability: []byte{1, 2, 3}})
	seed(wire.Packet{Type: wire.TypeData, TTL: 8, Dst: self, Src: peer, ASRoute: []uint32{1, 2, 3}})

	// One long-lived node on an in-memory network: state accumulated
	// across iterations only widens the explored surface.
	net := netem.NewNetwork(1)
	ep, err := net.Endpoint("node")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := net.Endpoint("peer"); err != nil {
		f.Fatal(err)
	}
	n, err := New(self, Config{Transport: ep})
	if err != nil {
		f.Fatal(err)
	}
	n.Bootstrap()
	f.Cleanup(func() {
		n.Close()
		net.Close()
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		var pkt wire.Packet
		if err := pkt.DecodeFromBytes(data); err != nil {
			return // the read loop drops malformed datagrams before handle
		}
		a := getActs()
		n.handle(&pkt, "peer", a)
		putActs(a)
		// Keep the delivery buffer from filling so to-self data packets
		// stay observable rather than counted as drops.
		for {
			select {
			case <-n.Deliveries():
				continue
			default:
			}
			break
		}
	})
}
