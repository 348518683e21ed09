package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// tracedRate is the key under which a traced round leaves the rate of a
// workload's operation with tracing on, for the overhead ratio.
func tracedRate(workload string) string { return "traced_ops_per_s:" + workload }

// traceRun is the run behind -trace 1. It measures the workload once
// untraced and once traced, both for half of -seconds, so that the cost
// of tracing is stated beside what tracing found; then it runs a short
// traced slice of every other family and the isolated layer loops, so
// that the one run carries the whole per-layer catalogue.
func traceRun(w workload, opt options) (*run, error) {
	r := &run{workload: w, layers: values{}}
	half := time.Duration(opt.seconds * float64(time.Second) / 2)
	plain, err := w.round(roundCtx{seed: opt.seed, budget: half, scale: opt.scale})
	if err != nil {
		return nil, fmt.Errorf("%s untraced round: %w", w.Name, err)
	}
	r.add(plain)

	for _, f := range families {
		rc := roundCtx{seed: opt.seed, traced: true, budget: half, scale: opt.scale}
		if f.name != w.family {
			rc.budget, rc.scale = time.Second/2, opt.scale*sliceScale
		}
		o, err := f.slice(rc, w)
		if err != nil {
			return nil, fmt.Errorf("%s traced %s round: %w", w.Name, f.name, err)
		}
		for k, v := range o.vals {
			r.layers[k] = v
		}
		if f.name != w.family {
			r.problems = append(r.problems, o.problems...)
			continue
		}
		r.add(o)
		if len(o.spans) > 0 {
			if err := writeJSON(filepath.Join(opt.out, "trace-"+w.Name+".json"), o.spans); err != nil {
				return nil, err
			}
		}
	}
	if err := isolatedLayers(roundCtx{seed: opt.seed, scale: opt.scale}, r.layers); err != nil {
		return nil, fmt.Errorf("isolated layers: %w", err)
	}

	traced, ok := r.layers[tracedRate(w.Name)]
	if !ok {
		return nil, fmt.Errorf("%s: the traced round left no rate to compare", w.Name)
	}
	r.layers["trace.overhead_ratio"] = traced / median(plain.readings["ops_per_s"])
	if r.attempted > 0 {
		r.layers["run.failed_share"] = float64(r.failed) / float64(r.attempted)
	}
	deriveHopLedger(r.layers)
	return r, nil
}

// deriveHopLedger closes the live hop's ledger. The hop's self time is
// what remains of it once the nested socket send is taken out; of that,
// decode, the core's forwarding decision and marshal are measured in
// isolation, and the rest is the driver's own: lock, pool, action
// dispatch, counters. That rest is also exactly what no layer measurement
// accounts for, so its share of the hop is the unattributed share.
func deriveHopLedger(v values) {
	codec := v["wire.decode_ns"] + v["proto.handle_forward_ns"] + v["wire.marshal_ns"]
	v["overlay.driver_ns"] = v["overlay.hop_self_us"]*1e3 - codec
	parts := v["netem.udp_send_us"] + codec/1e3
	v["overlay.unattributed_share"] = 1 - parts/v["overlay.hop_us.p50"]
}

// printLedgers prints the two per-layer budgets as sums: what one live
// hop is made of, and what one converge is made of.
func printLedgers(w workload, v values) {
	fmt.Printf("%s: live hop ledger (us, medians; traffic crosses host loopback only)\n", w.Name)
	hop := v["overlay.hop_us.p50"]
	row := func(name string, us float64) {
		fmt.Printf("  %-34s %9.3f  %5.1f%%\n", name, us, 100*us/hop)
	}
	row("netem.udp_send_us", v["netem.udp_send_us"])
	row("wire.decode_ns", v["wire.decode_ns"]/1e3)
	row("proto.handle_forward_ns", v["proto.handle_forward_ns"]/1e3)
	row("wire.marshal_ns", v["wire.marshal_ns"]/1e3)
	row("overlay.driver_ns (remainder)", v["overlay.driver_ns"]/1e3)
	row("overlay.hop_us.p50", hop)
	fmt.Printf("  overlay.unattributed_share %.3f; per delivered packet: %.2f transmissions, %.1f allocations; tracing overhead: rate x%.3f\n",
		v["overlay.unattributed_share"], v["overlay.tx_per_delivered"], v["overlay.allocs_per_delivered"], v["trace.overhead_ratio"])

	// The engine counts no events, so the handler's share of a converge
	// cannot be taken as a difference from outside; the ledger sets the
	// ring's shard scaling beside the bare engine's instead.
	fmt.Printf("%s: simulator ledger (host time)\n", w.Name)
	e1, e2 := v["sim.engine_ns_per_event_shards1"], v["sim.engine_ns_per_event_shards2"]
	fmt.Printf("  converge (engine + compact handler)  %8.3f s at 1 shard  %8.3f s at 2   x%.2f  (%.0f ns per control message)\n",
		v["vring.compact_run_s_shards1"], v["vring.compact_run_s_shards2"], v["sim.shard_speedup"], v["vring.compact_ns_per_ctl_msg"])
	fmt.Printf("  bare engine under the echo handler   %8.1f ns/event       %8.1f ns/event  x%.2f\n", e1, e2, e1/e2)
	fmt.Printf("  probe %.0f ns p50, cache hit share %.3f, stretch p50 %.3f\n",
		v["vring.compact_probe_ns.p50"], v["vring.compact_cache_hit_share"], v["vring.compact_stretch_p50"])
}
