// The driver side of the BFD-style successor liveness detector (see
// internal/proto/liveness.go for the protocol): a timer loop that
// re-reads the negotiated interval each round and feeds liveness ticks
// into the core. Time lives entirely here — the core only counts miss
// windows and negotiates intervals.
package overlay

import (
	"time"

	"rofl/internal/proto"
)

// LivenessParams shapes the adaptive failure detector (re-exported from
// the protocol core).
type LivenessParams = proto.LivenessParams

// startLiveness begins probing the node's current successor with the
// parameters the core was built with, until Close; New calls it at most
// once. Probing tracks successor changes automatically: whenever the
// successor-group head changes (evictions, joins, repairs), the
// detector re-arms against the new head with a fresh miss count.
func (n *Node) startLiveness() {
	stop := make(chan struct{})
	n.mu.Lock()
	n.livenessStop = stop
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			t := time.NewTimer(n.livenessInterval())
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
			n.tick((*proto.Core).TickLiveness)
		}
	}()
}

// livenessInterval is the negotiated transmit interval toward the
// current monitoring target: max(local MinTx, remote advertised MinRx).
func (n *Node) livenessInterval() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.LivenessInterval()
}
