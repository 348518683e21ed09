package overlay

import (
	"rofl/internal/telemetry"
)

// Instruments bundles the telemetry handles the node updates as it
// runs. Handles are resolved once at wiring time (setTelemetry) and
// updated with single atomic adds, so instrumentation costs the hot
// path no allocations and no map lookups; unset handles are nil and
// nil-safe. The struct is swapped in atomically, letting setTelemetry
// race harmlessly with a running read loop.
type Instruments struct {
	// Data path.
	Forwards      *telemetry.Counter // data packets sent onward (originated or transit)
	NoRouteDrops  *telemetry.Counter // no pointer made greedy progress
	TTLDrops      *telemetry.Counter // hop budget exhausted in transit
	GateDrops     *telemetry.Counter // admission gate rejected delivery
	Delivered     *telemetry.Counter // data packets handed to the application
	DeliveryDrops *telemetry.Counter // application channel full (slow consumer)

	// Control path.
	Retransmits     *telemetry.Counter // control request retransmissions (attempts past the first)
	RequestTimeouts *telemetry.Counter // control requests that exhausted their retry budget
	StabilizeRounds *telemetry.Counter // stabilization rounds run
	JoinsServed     *telemetry.Counter // join requests this node answered as predecessor

	// Failure detection.
	SuccEvictions     *telemetry.Counter // successors declared dead (any detector)
	PredClears        *telemetry.Counter // predecessor pointers cleared as dead
	LivenessProbes    *telemetry.Counter // BFD-style probes transmitted
	LivenessFailovers *telemetry.Counter // evictions triggered by the liveness detector

	// Events is the structured event log; nil drops all events.
	Events *telemetry.EventLog
}

// The overlay's metric and event catalog: every series the node
// registers and every structured event type it emits, in one place
// (documented in DESIGN.md §9). Families with a reason/kind dimension
// share a name and split by label.
const (
	metricForward          = "rofl_overlay_forward_total"
	metricDropNoRoute      = `rofl_overlay_drop_total{reason="no_route"}`
	metricDropTTL          = `rofl_overlay_drop_total{reason="ttl"}`
	metricDropGate         = `rofl_overlay_drop_total{reason="gate"}`
	metricDropSlow         = `rofl_overlay_drop_total{reason="slow_consumer"}`
	metricDelivered        = "rofl_overlay_delivered_total"
	metricRetransmit       = "rofl_overlay_retransmit_total"
	metricReqTimeout       = "rofl_overlay_request_timeout_total"
	metricStabilizeRound   = "rofl_overlay_stabilize_round_total"
	metricJoinServed       = "rofl_overlay_join_served_total"
	metricEvictSucc        = `rofl_overlay_eviction_total{kind="successor"}`
	metricEvictPred        = `rofl_overlay_eviction_total{kind="predecessor"}`
	metricLivenessProbe    = "rofl_overlay_liveness_probe_total"
	metricLivenessFailover = "rofl_overlay_liveness_failover_total"

	// Structured event types (EventLog).
	eventPredCleared    = "pred_cleared"
	eventSuccEvicted    = "succ_evicted"
	eventRequestTimeout = "request_timeout"
	eventJoinServed     = "join_served"
)

// setTelemetry wires the node's counters into reg and its structured
// events into log. Either may be nil (events-only or counters-only
// wiring). Safe to call while the node runs; per-packet updates switch
// to the new handles atomically.
func (n *Node) setTelemetry(reg *telemetry.Registry, log *telemetry.EventLog) {
	ins := &Instruments{Events: log}
	if reg != nil {
		ins.Forwards = reg.Counter(metricForward)
		ins.NoRouteDrops = reg.Counter(metricDropNoRoute)
		ins.TTLDrops = reg.Counter(metricDropTTL)
		ins.GateDrops = reg.Counter(metricDropGate)
		ins.DeliveryDrops = reg.Counter(metricDropSlow)
		ins.Delivered = reg.Counter(metricDelivered)
		ins.Retransmits = reg.Counter(metricRetransmit)
		ins.RequestTimeouts = reg.Counter(metricReqTimeout)
		ins.StabilizeRounds = reg.Counter(metricStabilizeRound)
		ins.JoinsServed = reg.Counter(metricJoinServed)
		ins.SuccEvictions = reg.Counter(metricEvictSucc)
		ins.PredClears = reg.Counter(metricEvictPred)
		ins.LivenessProbes = reg.Counter(metricLivenessProbe)
		ins.LivenessFailovers = reg.Counter(metricLivenessFailover)
	}
	n.ins.Store(ins)
}

// Instruments returns the node's current telemetry handles (never nil;
// an unwired node carries a zero Instruments whose handles are all
// nil).
func (n *Node) Instruments() *Instruments { return n.ins.Load() }

// PeerStatus is one ring pointer in a Status snapshot.
type PeerStatus struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Status is the node's ring snapshot, shaped for the /ring endpoint:
// identity, pointers, and pointer-cache occupancy.
type Status struct {
	ID                string       `json:"id"`
	Addr              string       `json:"addr"`
	Predecessor       *PeerStatus  `json:"predecessor,omitempty"`
	Successors        []PeerStatus `json:"successors"`
	KnownPeers        int          `json:"known_peers"`
	DroppedDeliveries uint64       `json:"dropped_deliveries"`
}

// Status returns a consistent snapshot of the node's ring state.
func (n *Node) Status() Status {
	n.mu.Lock()
	st := Status{
		ID:         n.id.String(),
		Addr:       n.tr.LocalAddr(),
		KnownPeers: n.core.KnownPeers(),
	}
	if p, ok := n.core.Predecessor(); ok {
		st.Predecessor = &PeerStatus{ID: p.ID.String(), Addr: p.Addr}
	}
	succs := n.core.Successors()
	st.Successors = make([]PeerStatus, 0, len(succs))
	for _, s := range succs {
		st.Successors = append(st.Successors, PeerStatus{ID: s.ID.String(), Addr: s.Addr})
	}
	n.mu.Unlock()
	st.DroppedDeliveries = n.dropCount.Load()
	return st
}
