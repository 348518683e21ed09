package main

import (
	"fmt"
	"sort"
	"time"

	"rofl/internal/wire"
)

// tracePackets is how many sampled packets have their whole span tree
// written to the trace file; the ledger itself reads every sampled hop.
const tracePackets = 200

// liveLedger turns what the taps, the generator and the collectors
// recorded into the live per-layer metrics, and returns the span trees of
// the first sampled packets. The ring must be closed: the read loops own
// their records until then.
func liveLedger(vals values, ring *liveRing, tr *traffic) []span {
	// Every transmission's send exit, by (sequence, TTL on the wire).
	sendEnd := make(map[dgKey]int64)
	byPacket := make(map[uint64][]hopRec)
	var sendUs []float64
	for _, t := range ring.taps {
		for _, o := range t.origins {
			sendEnd[o.Key] = o.End
			sendUs = append(sendUs, float64(o.End-o.Start)/1e3)
		}
		for _, h := range t.hops {
			if h.SendEnd != 0 {
				sendEnd[h.Key-1] = h.SendEnd
			}
			byPacket[h.Key.seq()] = append(byPacket[h.Key.seq()], h)
		}
	}

	// The ledger's spans: one per forwarding hop, with its send nested.
	var hopSpans []span
	var hopUs, transitUs, handoffUs []float64
	for _, t := range ring.taps {
		for _, h := range t.hops {
			if end, ok := sendEnd[h.Key]; ok {
				transitUs = append(transitUs, float64(h.RecvRet-end)/1e3)
			}
			switch {
			case h.NextRecv == 0:
				// The socket closed under this hop.
			case h.SendEnd != 0:
				hopUs = append(hopUs, float64(h.NextRecv-h.RecvRet)/1e3)
				sendUs = append(sendUs, float64(h.SendEnd-h.SendStart)/1e3)
				hopSpans = append(hopSpans,
					span{Name: "overlay.hop", Trace: h.Key.seq(), Parent: -1, Start: h.RecvRet, End: h.NextRecv},
					span{Name: "netem.udp_send", Trace: h.Key.seq(), Parent: len(hopSpans), Start: h.SendStart, End: h.SendEnd})
			default:
				if read, ok := tr.reads[h.Key.seq()]; ok {
					handoffUs = append(handoffUs, float64(read-h.RecvRet)/1e3)
				}
			}
		}
	}
	self := selfTimes(hopSpans)
	var selfUs []float64
	for i, s := range hopSpans {
		if s.Parent < 0 {
			selfUs = append(selfUs, float64(self[i])/1e3)
		}
	}
	var originUs []float64
	for _, o := range tr.origin {
		originUs = append(originUs, float64(o.End-o.Start)/1e3)
	}

	hop := summarize(hopUs)
	transit := summarize(transitUs)
	vals["overlay.hop_us.p50"], vals["overlay.hop_us.p99"] = hop.P50, hop.Tail
	vals["netem.kernel_transit_us.p50"], vals["netem.kernel_transit_us.p99"] = transit.P50, transit.Tail
	vals["overlay.hop_self_us"] = summarize(selfUs).P50
	vals["netem.udp_send_us"] = summarize(sendUs).P50
	vals["overlay.origin_send_us"] = summarize(originUs).P50
	vals["overlay.deliver_handoff_us"] = summarize(handoffUs).P50

	var samples [][]byte
	for _, t := range ring.taps {
		samples = append(samples, t.samples...)
	}
	vals["wire.decode_ns"], vals["wire.marshal_ns"] = wireReplay(samples)

	return packetSpans(tr, byPacket)
}

// wireReplay times DecodeFromBytes and AppendTo on the datagrams the
// workload itself put on the wire.
func wireReplay(samples [][]byte) (decodeNs, marshalNs float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	const passes = 2000
	var pkt wire.Packet
	start := time.Now()
	for i := 0; i < passes; i++ {
		for _, s := range samples {
			if err := pkt.DecodeFromBytes(s); err != nil {
				panic(fmt.Sprintf("replayed datagram does not decode: %v", err))
			}
		}
	}
	decodeNs = float64(time.Since(start)) / float64(passes*len(samples))
	pkts := make([]wire.Packet, len(samples))
	for i, s := range samples {
		if err := pkts[i].DecodeFromBytes(s); err != nil {
			panic(fmt.Sprintf("replayed datagram does not decode: %v", err))
		}
	}
	buf := make([]byte, 0, 2048)
	start = time.Now()
	for i := 0; i < passes; i++ {
		for j := range pkts {
			b, err := pkts[j].AppendTo(buf[:0])
			if err != nil {
				panic(fmt.Sprintf("replayed packet does not marshal: %v", err))
			}
			buf = b
		}
	}
	marshalNs = float64(time.Since(start)) / float64(passes*len(samples))
	return decodeNs, marshalNs
}

// packetSpans assembles, for the first sampled packets, the whole tree:
// the packet from Node.Send to the collector's read, and under it the
// origin send, each kernel transit, each hop with its nested send, and
// the hand-off to the collector.
func packetSpans(tr *traffic, byPacket map[uint64][]hopRec) []span {
	var spans []span
	for _, o := range tr.origin {
		seq := o.Key.seq()
		read, ok := tr.reads[seq]
		hops := byPacket[seq]
		if !ok || len(hops) == 0 {
			continue
		}
		if len(spans) >= tracePackets*8 {
			break
		}
		// Hops in travel order: the TTL falls by one at each.
		sort.Slice(hops, func(i, j int) bool { return hops[i].Key.ttl() > hops[j].Key.ttl() })
		root := len(spans)
		spans = append(spans,
			span{Name: "packet", Trace: seq, Parent: -1, Start: o.Start, End: read},
			span{Name: "overlay.origin_send", Trace: seq, Parent: root, Start: o.Start, End: o.End})
		lastSend := o.End
		for _, h := range hops {
			spans = append(spans, span{Name: "netem.kernel_transit", Trace: seq, Parent: root, Start: lastSend, End: h.RecvRet})
			if h.SendEnd == 0 {
				spans = append(spans, span{Name: "overlay.deliver_handoff", Trace: seq, Parent: root, Start: h.RecvRet, End: read})
				break
			}
			hop := len(spans)
			spans = append(spans,
				span{Name: "overlay.hop", Trace: seq, Parent: root, Start: h.RecvRet, End: h.NextRecv},
				span{Name: "netem.udp_send", Trace: seq, Parent: hop, Start: h.SendStart, End: h.SendEnd})
			lastSend = h.SendEnd
		}
	}
	return spans
}
