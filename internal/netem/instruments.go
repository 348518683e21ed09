package netem

import "rofl/internal/telemetry"

// Instruments mirrors LinkStats into a telemetry registry: one counter
// per packet fate, resolved once so the send path pays a handful of
// atomic adds and no map lookups. All handles are nil-safe, and a nil
// *Instruments drops every update.
type Instruments struct {
	Sent             *telemetry.Counter
	Delivered        *telemetry.Counter
	Lost             *telemetry.Counter
	Duplicated       *telemetry.Counter
	Reordered        *telemetry.Counter
	PartitionDropped *telemetry.Counter
	Unrouted         *telemetry.Counter
	InboxDropped     *telemetry.Counter
}

// The fabric's metric catalog: the fate counter series registered by
// NewInstruments. A single family split by the fate label, matching the
// LinkStats fields (documented in DESIGN.md §9).
const (
	metricFateSent       = `rofl_netem_packet_total{fate="sent"}`
	metricFateDelivered  = `rofl_netem_packet_total{fate="delivered"}`
	metricFateLost       = `rofl_netem_packet_total{fate="lost"}`
	metricFateDuplicated = `rofl_netem_packet_total{fate="duplicated"}`
	metricFateReordered  = `rofl_netem_packet_total{fate="reordered"}`
	metricFatePartition  = `rofl_netem_packet_total{fate="partition_dropped"}`
	metricFateUnrouted   = `rofl_netem_packet_total{fate="unrouted"}`
	metricFateInboxDrop  = `rofl_netem_packet_total{fate="inbox_dropped"}`
)

// NewInstruments resolves the fate counters in reg.
func NewInstruments(reg *telemetry.Registry) *Instruments {
	if reg == nil {
		return nil
	}
	return &Instruments{
		Sent:             reg.Counter(metricFateSent),
		Delivered:        reg.Counter(metricFateDelivered),
		Lost:             reg.Counter(metricFateLost),
		Duplicated:       reg.Counter(metricFateDuplicated),
		Reordered:        reg.Counter(metricFateReordered),
		PartitionDropped: reg.Counter(metricFatePartition),
		Unrouted:         reg.Counter(metricFateUnrouted),
		InboxDropped:     reg.Counter(metricFateInboxDrop),
	}
}

// add publishes one batch of fate deltas.
func (ins *Instruments) add(st LinkStats) {
	if ins == nil {
		return
	}
	ins.Sent.Add(st.Sent)
	ins.Delivered.Add(st.Delivered)
	ins.Lost.Add(st.Lost)
	ins.Duplicated.Add(st.Duplicated)
	ins.Reordered.Add(st.Reordered)
	ins.PartitionDropped.Add(st.PartitionDropped)
	ins.Unrouted.Add(st.Unrouted)
	ins.InboxDropped.Add(st.InboxDropped)
}
