package main

// The metric catalogue: every name the benchmark prints, once, with its
// unit and direction. BENCHMARK.json repeats it for the driver; a test
// holds the two together. README.md says what each metric means and
// which end-to-end figure each layer metric should move.

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 6

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is reported by every workload in an untraced run. "op" is the
// workload's one operation: a packet delivered, a member converged, a
// probe, a join, a route.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer is reported by every workload in a traced run: the layers the
// workload itself runs are measured on it at full length, the others on a
// short slice of the workload that does run them, so each traced run
// carries the whole ledger.
var perLayer = []metricDef{
	// The run as a whole.
	{"trace.overhead_ratio", "ratio", "higher", 0},
	{"run.failed_share", "ratio", "lower", 0},
	{"loadgen.cpu_share", "ratio", "lower", 0},

	// overlay: the live node's driver.
	{"overlay.delivery_us.p50", "us", "lower", 0},
	{"overlay.delivery_us.p99", "us", "lower", 0},
	{"overlay.tx_per_delivered", "count", "lower", 0},
	{"overlay.hop_us.p50", "us", "lower", 0},
	{"overlay.hop_us.p99", "us", "lower", 0},
	{"overlay.hop_self_us", "us", "lower", 0},
	{"overlay.driver_ns", "ns", "lower", 0},
	{"overlay.unattributed_share", "ratio", "lower", 0},
	{"overlay.origin_send_us", "us", "lower", 0},
	{"overlay.deliver_handoff_us", "us", "lower", 0},
	{"overlay.allocs_per_delivered", "count", "lower", 0},
	{"overlay.bytes_per_delivered", "B", "lower", 0},
	{"overlay.delivery_drops", "count", "lower", 0},
	{"overlay.no_route_drops", "count", "lower", 0},
	{"overlay.ttl_drops", "count", "lower", 0},
	{"overlay.control_pkts_per_s", "1/s", "lower", 0},
	{"overlay.cpu_busy_share", "ratio", "higher", 0},

	// netem: the UDP transport.
	{"netem.udp_send_us", "us", "lower", 0},
	{"netem.udp_send_isolated_ns", "ns", "lower", 0},
	{"netem.udp_send_allocs", "count", "lower", 0},
	{"netem.udp_recv_isolated_ns", "ns", "lower", 0},
	{"netem.udp_recv_allocs", "count", "lower", 0},
	{"netem.kernel_transit_us.p50", "us", "lower", 0},
	{"netem.kernel_transit_us.p99", "us", "lower", 0},
	{"netem.recv_idle_share", "ratio", "lower", 0},

	// wire, proto, ident: what one hop computes.
	{"wire.decode_ns", "ns", "lower", 0},
	{"wire.marshal_ns", "ns", "lower", 0},
	{"proto.handle_forward_ns", "ns", "lower", 0},
	{"proto.handle_deliver_ns", "ns", "lower", 0},
	{"proto.stabilize_tick_ns", "ns", "lower", 0},
	{"proto.join_us.p50", "us", "lower", 0},
	{"proto.succ_tail_correct_share", "ratio", "higher", 0},
	{"ident.distance_ns", "ns", "lower", 0},
	{"ident.progress_ns", "ns", "lower", 0},
	{"ident.intern_ns", "ns", "lower", 0},

	// sim + vring compact: the sharded simulator.
	{"vring.compact_build_s", "s", "lower", 0},
	{"vring.compact_run_s_shards1", "s", "lower", 0},
	{"vring.compact_run_s_shards2", "s", "lower", 0},
	{"sim.shard_speedup", "ratio", "higher", 0},
	{"vring.compact_ctl_msgs", "count", "lower", 0},
	{"vring.compact_ns_per_ctl_msg", "ns", "lower", 0},
	{"sim.engine_ns_per_event_shards1", "ns", "lower", 0},
	{"sim.engine_ns_per_event_shards2", "ns", "lower", 0},
	{"vring.compact_probe_ns.p50", "ns", "lower", 0},
	{"vring.compact_probe_ns.p99", "ns", "lower", 0},
	{"vring.compact_probejoin_ns", "ns", "lower", 0},
	{"vring.compact_cache_hit_share", "ratio", "higher", 0},
	{"vring.compact_stretch_p50", "ratio", "lower", 0},
	{"vring.compact_converge_vms", "ms", "lower", 0},
	{"vring.compact_bytes_per_host", "B", "lower", 0},

	// topology, linkstate, vring.Network, canon: the fidelity simulators.
	{"topology.gen_isp_ms", "ms", "lower", 0},
	{"topology.gen_as_ms", "ms", "lower", 0},
	{"vring.network_join_us.p50", "us", "lower", 0},
	{"vring.network_join_us.p99", "us", "lower", 0},
	{"vring.network_route_us.p50", "us", "lower", 0},
	{"vring.network_route_us.p99", "us", "lower", 0},
	{"vring.network_route_hops", "count", "lower", 0},
	{"vring.cache_insert_ns", "ns", "lower", 0},
	{"vring.cache_lookup_ns", "ns", "lower", 0},
	{"linkstate.path_ns", "ns", "lower", 0},
	{"canon.join_us.p50", "us", "lower", 0},
	{"canon.join_us.p99", "us", "lower", 0},
	{"canon.route_us.p50", "us", "lower", 0},
	{"canon.route_us.p99", "us", "lower", 0},
	{"canon.route_as_hops", "count", "lower", 0},
}
