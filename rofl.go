package rofl

import (
	"io"
	"time"

	"rofl/internal/canon"
	"rofl/internal/cluster"
	"rofl/internal/composite"
	"rofl/internal/delivery"
	"rofl/internal/experiments"
	"rofl/internal/ident"
	"rofl/internal/netem"
	"rofl/internal/overlay"
	"rofl/internal/secure"
	"rofl/internal/sim"
	"rofl/internal/telemetry"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

// ID is a flat 128-bit label on the circular routing namespace.
type ID = ident.ID

// Identity is a self-certifying identity: the label is the hash of an
// ed25519 public key.
type Identity = ident.Identity

// Group is the shared prefix of an anycast/multicast group.
type Group = ident.Group

// IDFromString derives a deterministic label by hashing a string.
func IDFromString(s string) ID { return ident.FromString(s) }

// IDFromBytes derives a label by hashing bytes.
func IDFromBytes(b []byte) ID { return ident.FromBytes(b) }

// ParseID decodes a 32-hex-digit label.
func ParseID(s string) (ID, error) { return ident.Parse(s) }

// NewIdentity mints a self-certifying identity from an entropy source
// (use crypto/rand.Reader in production).
func NewIdentity(rng io.Reader) (*Identity, error) { return ident.NewIdentity(rng) }

// GroupFromString derives an anycast/multicast group prefix from a name.
func GroupFromString(name string) Group { return ident.GroupFromString(name) }

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// Metrics accumulates per-category message counts and sample sets.
type Metrics = sim.Metrics

// NewMetrics returns an empty metrics sink.
func NewMetrics() Metrics { return sim.NewMetrics() }

// ---------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------

// Graph is a weighted router-level topology.
type Graph = topology.Graph

// ISP is a generated intradomain topology with backbone/access split.
type ISP = topology.ISP

// ISPConfig parameterizes the Rocketfuel-like ISP generator.
type ISPConfig = topology.ISPConfig

// ASGraph is an annotated AS-level topology with policy relationships.
type ASGraph = topology.ASGraph

// ASGenConfig parameterizes the Internet-like AS-graph generator.
type ASGenConfig = topology.ASGenConfig

// ASN identifies an autonomous system.
type ASN = topology.ASN

// RouterID indexes a router in a Graph.
type RouterID = topology.NodeID

// GenISP builds a deterministic ISP-like topology.
func GenISP(cfg ISPConfig) *ISP { return topology.GenISP(cfg) }

// GenAS builds a deterministic Internet-like AS graph.
func GenAS(cfg ASGenConfig) *ASGraph { return topology.GenAS(cfg) }

// DefaultASGen returns the reference Internet-like generator config.
func DefaultASGen() ASGenConfig { return topology.DefaultASGen() }

// AS1221 returns the paper's AS 1221 evaluation topology config
// (318 routers).
func AS1221() ISPConfig { return topology.AS1221 }

// AS3967 returns the paper's AS 3967 evaluation ISP config.
func AS3967() ISPConfig { return topology.AS3967 }

// EvalISPs returns all four evaluation ISP configs in figure order.
func EvalISPs() []ISPConfig { return topology.EvalISPs() }

// ParseRocketfuel reads a real Rocketfuel .cch router-level map, so the
// evaluation can run on the paper's actual topologies when you have the
// dataset (this repository ships only generated substitutes).
func ParseRocketfuel(r io.Reader, name string, linkWeightMS float64) (*ISP, error) {
	return topology.ParseRocketfuel(r, name, linkWeightMS)
}

// ParseASRelationships reads a CAIDA serial-1 AS-relationship file
// (as1|as2|rel) into an annotated AS graph, with the original AS numbers
// mapped to dense indices.
func ParseASRelationships(r io.Reader) (*ASGraph, map[int]ASN, error) {
	return topology.ParseASRelationships(r)
}

// ---------------------------------------------------------------------------
// Intradomain ROFL (paper §3)
// ---------------------------------------------------------------------------

// Network is one AS running intradomain ROFL: virtual rings over a
// router topology with greedy forwarding and failure repair.
type Network = vring.Network

// NetworkOptions tunes the intradomain protocol knobs.
type NetworkOptions = vring.Options

// JoinResult reports the cost of one host join.
type JoinResult = vring.JoinResult

// RouteResult reports one data packet's fate and stretch.
type RouteResult = vring.RouteResult

// VirtualNode is the routing state for one resident identifier.
type VirtualNode = vring.VirtualNode

// DefaultNetworkOptions mirrors the paper's simulation defaults:
// successor groups of 3, 70k-entry pointer caches (≈9 Mbit of 128-bit
// IDs, §6.2) filled from control traffic only (no data snooping),
// seed 1. Every Default* constructor in this package follows
// the same convention: the returned struct is the reference
// configuration, and any field may be overridden before use.
func DefaultNetworkOptions() NetworkOptions { return vring.DefaultOptions() }

// NewNetwork builds an intradomain ROFL network over a router graph.
func NewNetwork(g *Graph, m Metrics, opts NetworkOptions) *Network {
	return vring.New(g, m, opts)
}

// ---------------------------------------------------------------------------
// Interdomain ROFL (paper §4)
// ---------------------------------------------------------------------------

// Internet is the interdomain simulation: per-AS rings merged bottom-up
// with policy support and the isolation property.
type Internet = canon.Internet

// InternetOptions tunes the interdomain knobs (fingers, caches, Bloom
// peering).
type InternetOptions = canon.Options

// Strategy selects how much of the up-hierarchy a join covers.
type Strategy = canon.Strategy

// Join strategies, in increasing coverage and cost (paper Fig 8a).
const (
	Ephemeral   = canon.Ephemeral
	SingleHomed = canon.SingleHomed
	Multihomed  = canon.Multihomed
	Peering     = canon.Peering
)

// DefaultInternetOptions mirrors the paper's baseline configuration:
// no finger budget, no pointer caches, Bloom peering off (1% target
// false-positive rate when enabled), seed 1 — the floor the Fig 8
// ablations improve on.
func DefaultInternetOptions() InternetOptions { return canon.DefaultOptions() }

// Negotiation is an endpoint path-negotiation outcome (paper §5.1): the
// AS set both endpoints agreed subsequent packets may traverse, plus the
// cost of the greedy first packet.
type Negotiation = canon.Negotiation

// SuffixJoin reports a multi-suffix traffic-engineering join (§5.1).
type SuffixJoin = canon.SuffixJoin

// NewInternet builds an interdomain ROFL simulation over an AS graph.
func NewInternet(g *ASGraph, m Metrics, opts InternetOptions) *Internet {
	return canon.New(g, m, opts)
}

// ---------------------------------------------------------------------------
// The composed two-level system (Algorithm 1 end to end)
// ---------------------------------------------------------------------------

// GlobalSystem is the paper's full architecture assembled: a virtual-ring
// network inside every AS, border routers relaying external joins, and
// the Canon-merged interdomain layer on top. Intra-AS traffic never
// leaves its AS; cross-AS traffic composes intradomain and interdomain
// legs.
type GlobalSystem = composite.Global

// GlobalOptions configures the composed system.
type GlobalOptions = composite.Options

// GlobalRouteResult reports a composed route's per-layer breakdown.
type GlobalRouteResult = composite.RouteResult

// DefaultGlobalOptions returns a laptop-scale two-level configuration:
// the intradomain and interdomain defaults above, 2 border routers per
// AS, a 24-router ISP template per domain, seed 1.
func DefaultGlobalOptions() GlobalOptions { return composite.DefaultOptions() }

// NewGlobal assembles the two-level system over an AS graph.
func NewGlobal(g *ASGraph, m Metrics, opts GlobalOptions) *GlobalSystem {
	return composite.New(g, m, opts)
}

// ---------------------------------------------------------------------------
// Delivery models (paper §5.2)
// ---------------------------------------------------------------------------

// Anycast delivers to the nearest member of a group.
type Anycast = delivery.Anycast

// Multicast maintains a path-painted distribution tree for a group.
type Multicast = delivery.Multicast

// NewAnycast binds an anycast group to a network.
func NewAnycast(n *Network, g Group) *Anycast { return delivery.NewAnycast(n, g) }

// NewMulticast creates an empty multicast tree for a group.
func NewMulticast(n *Network, g Group, m Metrics) *Multicast {
	return delivery.NewMulticast(n, g, m)
}

// ---------------------------------------------------------------------------
// Security extensions (paper §2.1, §5.3)
// ---------------------------------------------------------------------------

// Authenticator performs join-time proof-of-key-possession checks.
type Authenticator = secure.Authenticator

// Registry tracks provider registration and Sybil quotas.
type Registry = secure.Registry

// Capability is a signed, expiring send-authorization token.
type Capability = secure.Capability

// Gate is the default-off admission filter.
type Gate = secure.Gate

// NewRegistry creates a registry with a per-router identifier quota
// (0 = unlimited).
func NewRegistry(quota int) *Registry { return secure.NewRegistry(quota) }

// NewGate builds a default-off gate over a registry.
func NewGate(reg *Registry) *Gate { return secure.NewGate(reg) }

// GrantCapability issues a capability from the destination's identity.
func GrantCapability(dst *Identity, src ID, expiry uint64) Capability {
	return secure.Grant(dst, src, expiry)
}

// UnmarshalCapability decodes a capability token from a packet header.
func UnmarshalCapability(b []byte) (Capability, error) {
	return secure.UnmarshalCapability(b)
}

// ---------------------------------------------------------------------------
// UDP overlay + network emulation
// ---------------------------------------------------------------------------

// OverlayNode is a ROFL node speaking the wire format over a datagram
// transport (real UDP by default). All protocol logic — ring
// maintenance, greedy forwarding, eviction, quarantine, gossip,
// liveness — lives in the transport-agnostic core of internal/proto;
// the node is the live driver around one core.
type OverlayNode = overlay.Node

// NodeConfig configures an overlay node. Like the other option structs
// (NetworkOptions, InternetOptions, GlobalOptions), the zero value is
// usable: it binds a UDP socket on a random loopback port
// ("127.0.0.1:0"), retries control requests with the default policy
// (120ms first retry, doubling to a 2s cap), installs no admission
// gate, buffers 64 deliveries, wires no telemetry, and starts neither
// maintenance loop. Set Stabilize and EnableLiveness (or start from
// DefaultNodeConfig) to keep a long-lived ring healthy.
type NodeConfig = overlay.Config

// RetryPolicy shapes the retransmission schedule of overlay control
// requests: first retransmit after Initial, each wait multiplied by
// Multiplier and capped at Max, until the caller's deadline expires; a
// Multiplier below 1 holds every wait at Initial. The zero value means
// the default policy.
type RetryPolicy = overlay.RetryPolicy

// DefaultNodeConfig returns the production overlay defaults: a UDP
// socket on a random loopback port, a 250ms stabilization loop, and
// the BFD-style liveness detector with its default parameters. The zero
// NodeConfig differs only in leaving both maintenance loops off.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		Stabilize:      250 * time.Millisecond,
		EnableLiveness: true,
	}
}

// NewOverlayNode builds a node from cfg and starts its receive loop,
// plus the stabilize and liveness loops when cfg asks for them. The
// node is ready to Bootstrap a new ring or Join an existing one.
func NewOverlayNode(id ID, cfg NodeConfig) (*OverlayNode, error) {
	return overlay.New(id, cfg)
}

// OverlayTransport is the datagram surface overlay nodes speak through:
// real UDP, an emulated netem fabric, or a fault-injecting wrapper.
type OverlayTransport = netem.Transport

// ListenUDPTransport binds a real-UDP transport ("127.0.0.1:0" picks a
// free port).
func ListenUDPTransport(bind string) (OverlayTransport, error) {
	return netem.ListenUDP(bind)
}

// FaultParams configures injected faults: loss/duplication/reorder
// probabilities, latency, jitter, and bandwidth.
type FaultParams = netem.LinkParams

// FaultTransport degrades another transport's outbound traffic with a
// seeded, reproducible fault schedule.
type FaultTransport = netem.Fault

// WrapFaultTransport applies params to inner's outbound packets, drawing
// decisions from a RNG seeded with seed.
func WrapFaultTransport(inner OverlayTransport, params FaultParams, seed int64) *FaultTransport {
	return netem.WrapFault(inner, params, seed)
}

// ---------------------------------------------------------------------------
// Telemetry & observability
// ---------------------------------------------------------------------------

// TelemetryRegistry holds named counters and renders them in
// Prometheus text format.
type TelemetryRegistry = telemetry.Registry

// NewTelemetryRegistry returns an empty metrics registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// EventLog writes structured JSON-lines events.
type EventLog = telemetry.EventLog

// NewEventLog writes events to w as JSON lines.
func NewEventLog(w io.Writer) *EventLog { return telemetry.NewEventLog(w) }

// TelemetryServer serves /metrics, /ring, and /healthz for one node.
type TelemetryServer = telemetry.Server

// NewTelemetryServer listens on addr ("127.0.0.1:0" picks a free port)
// and serves reg's metrics, ring's snapshot, and health's verdict.
func NewTelemetryServer(addr string, reg *TelemetryRegistry, ring func() any, health func() error) (*TelemetryServer, error) {
	return telemetry.NewServer(addr, reg, ring, health)
}

// OverlayStatus is an overlay node's ring snapshot (the /ring payload).
type OverlayStatus = overlay.Status

// LivenessParams shapes the overlay's BFD-style adaptive failure
// detector: probe intervals are negotiated per-pair and a successor is
// declared dead after Multiplier unanswered probes. Zero fields take the
// defaults, which detect a dead successor in roughly 40ms.
type LivenessParams = overlay.LivenessParams

// NewFaultInstruments resolves per-fate packet counters in reg for use
// with FaultTransport.SetInstruments.
func NewFaultInstruments(reg *TelemetryRegistry) *netem.Instruments {
	return netem.NewInstruments(reg)
}

// ---------------------------------------------------------------------------
// Cluster supervision
// ---------------------------------------------------------------------------

// ClusterConfig shapes a supervised in-process cluster.
type ClusterConfig = cluster.Config

// ClusterSupervisor launches, observes, churns, and drains N overlay
// nodes, each with its own metrics registry and HTTP endpoint.
type ClusterSupervisor = cluster.Supervisor

// ClusterMember is one supervised node slot.
type ClusterMember = cluster.Member

// ClusterEvent is one churn action (kill or restart).
type ClusterEvent = cluster.Event

// NewCluster prepares a supervisor; Start launches the nodes.
func NewCluster(cfg ClusterConfig) *ClusterSupervisor { return cluster.New(cfg) }

// ClusterSchedule derives a seed-reproducible churn schedule: kills
// target live nodes, restarts target dead ones, and at least half the
// cluster stays alive at every step.
func ClusterSchedule(seed int64, n, steps int) []ClusterEvent {
	return cluster.Schedule(seed, n, steps)
}

// ---------------------------------------------------------------------------
// Experiments (paper §6)
// ---------------------------------------------------------------------------

// ExperimentConfig scales the evaluation drivers.
type ExperimentConfig = experiments.Config

// ExperimentTable is one reproduced figure.
type ExperimentTable = experiments.Table

// Experiment is a named figure driver.
type Experiment = experiments.Runner

// Experiments lists every reproduced figure in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds a figure driver ("fig5a" ... "ablation").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// DefaultExperimentConfig sizes the full evaluation.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// QuickExperimentConfig sizes a smoke-test run.
func QuickExperimentConfig() ExperimentConfig { return experiments.QuickConfig() }
