package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatchesHarness holds
// the two together); regression bounds live only there.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// exact marks a figure in simulated time or a deterministic count:
	// for one seed and one --seconds it must repeat exactly, on any
	// host, and -compare flags any difference.
	exact bool
}

// endToEnd are the metrics a user of the simulator sees, reported by
// the untraced passes under the same names on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", false},
	{"wall_s", "s", "lower", false},
	{"router_cycles_per_s", "1/s", "higher", false},
	{"peak_rss_mb", "MB", "lower", false},
	{"sim_avg_latency_cycles", "cycles", "lower", true},
	{"sim_p99_latency_cycles", "cycles", "lower", true},
	{"sim_throughput_flits_per_cycle", "flits/cycle", "higher", true},
}

// perLayer are the single-layer metrics of the traced run; the layer
// is the module name before the dot. Where a layer has nothing to do
// on a workload (snap.* outside checkpoint_branch, txn.* outside
// txn_dram, experiments.* outside paper_sweep) the value is 0.
var perLayer = []metricDef{
	{"network.new_s", "s", "lower", false},
	{"network.heap_bytes_per_router", "bytes", "lower", false},
	{"network.step_ns_p50", "ns", "lower", false},
	{"network.step_ns_tail", "ns", "lower", false},
	{"network.step_tail_pct", "%", "higher", true},
	{"network.step_samples", "count", "higher", true},
	{"network.step_ns_per_router", "ns", "lower", false},
	{"network.compute_ticked_frac", "ratio", "lower", true},
	{"network.deliver_ticked_frac", "ratio", "lower", true},
	{"network.workers_speedup", "ratio", "higher", false},
	{"network.mallocs_per_cycle", "1/cycle", "lower", false},
	{"router.tick_ns_loaded", "ns", "lower", false},
	{"router.tick_ns_light", "ns", "lower", false},
	{"router.va_ops_per_cycle", "1/cycle", "lower", true},
	{"router.sa_ops_per_cycle", "1/cycle", "lower", true},
	{"router.va_grant_ratio", "ratio", "higher", true},
	{"router.sa_grant_ratio", "ratio", "higher", true},
	{"router.credit_stalls_per_cycle", "1/cycle", "lower", true},
	{"core.ubs_flit_ns", "ns", "lower", false},
	{"core.inuse_vcs_per_port", "count", "higher", true},
	{"core.occupancy_pct", "%", "lower", true},
	{"buffers.generic_flit_ns", "ns", "lower", false},
	{"buffers.damq_flit_ns", "ns", "lower", false},
	{"buffers.fccb_flit_ns", "ns", "lower", false},
	{"arbiter.mask_ns", "ns", "lower", false},
	{"routing.build_s", "s", "lower", false},
	{"routing.table_bytes", "bytes", "lower", true},
	{"routing.lookup_ns", "ns", "lower", false},
	{"traffic.tick_ns", "ns", "lower", false},
	{"traffic.packets_per_cycle", "1/cycle", "higher", true},
	{"txn.issued", "count", "higher", true},
	{"txn.retired", "count", "higher", true},
	{"txn.avg_cycles", "cycles", "lower", true},
	{"txn.p99_cycles", "cycles", "lower", true},
	{"snap.save_s", "s", "lower", false},
	{"snap.restore_s", "s", "lower", false},
	{"snap.bytes", "bytes", "lower", true},
	{"snap.saves", "count", "lower", true},
	{"metrics.on_overhead_pct", "%", "lower", false},
	{"metrics.trace_overhead_pct", "%", "lower", false},
	{"metrics.scrape_s", "s", "lower", false},
	{"metrics.events_total", "count", "lower", true},
	{"metrics.events_dropped", "count", "lower", true},
	{"faults.on_overhead_pct", "%", "lower", false},
	{"experiments.point_s_p50", "s", "lower", false},
	{"experiments.point_s_max", "s", "lower", false},
	{"experiments.parallel_efficiency", "ratio", "higher", false},
	{"experiments.saturated_points", "count", "lower", true},
	{"stats.queue_latency_cycles", "cycles", "lower", true},
	{"stats.network_latency_cycles", "cycles", "lower", true},
	{"stats.max_channel_load", "flits/cycle", "lower", true},
	{"stats.link_flits_per_cycle", "flits/cycle", "higher", true},
	{"stats.buffer_writes_per_cycle", "1/cycle", "lower", true},
	{"stats.vic_over_gen_latency_r035", "ratio", "lower", true},
	{"trace_overhead_pct", "%", "lower", false},
}

func metricByName(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}
