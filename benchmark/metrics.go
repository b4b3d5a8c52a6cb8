package main

// The metric names below are the benchmark's public surface: every
// later performance claim names one of them and a workload.  They must
// stay equal to BENCHMARK.json (benchmark_test.go checks it) and must
// never be renamed.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd are the metrics of the untraced run.  A bound is how far
// the value may worsen before it counts as a regression.
var endToEnd = []metricDef{
	{Name: "wall_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of the traced run and the layer probes.
// Count metrics (unit "count", "B", "sim_us", "sim_ms") repeat exactly
// for a given seed; "%" metrics built only from counts do too.
var perLayer = []metricDef{
	// The simulated machine: deterministic, pinned by the output check.
	{Name: "sim_us_per_op", Unit: "sim_us", Better: "lower"},
	{Name: "sim_err_pct", Unit: "%", Better: "lower"},

	{Name: "des.events_per_op", Unit: "count", Better: "lower"},
	{Name: "des.events_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "des.wall_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "des.sched_ns.1e3", Unit: "ns", Better: "lower"},
	{Name: "des.sched_ns.1e5", Unit: "ns", Better: "lower"},
	{Name: "des.delay_ns", Unit: "ns", Better: "lower"},
	{Name: "des.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "des.pool_exec_ns", Unit: "ns", Better: "lower"},

	{Name: "arctic.packets_per_op", Unit: "count", Better: "lower"},
	{Name: "arctic.hops_per_packet", Unit: "count", Better: "lower"},
	{Name: "arctic.payload_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "arctic.goodput_pct", Unit: "%", Better: "higher"},
	{Name: "arctic.ns_per_hop.16", Unit: "ns", Better: "lower"},
	{Name: "arctic.ns_per_hop.64", Unit: "ns", Better: "lower"},
	{Name: "arctic.events_per_hop.16", Unit: "count", Better: "lower"},
	{Name: "arctic.events_per_hop.64", Unit: "count", Better: "lower"},
	{Name: "arctic.codec_ns_per_packet", Unit: "ns", Better: "lower"},

	{Name: "startx.pio_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "startx.pio_events_per_msg", Unit: "count", Better: "lower"},
	{Name: "startx.dma_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "startx.dma_events_per_kib", Unit: "count", Better: "lower"},
	{Name: "startx.retransmits_per_op", Unit: "count", Better: "lower"},
	{Name: "startx.timeouts_per_op", Unit: "count", Better: "lower"},

	{Name: "comm.exchanges_per_op", Unit: "count", Better: "lower"},
	{Name: "comm.gsums_per_op", Unit: "count", Better: "lower"},
	{Name: "comm.bytes_sent_per_op", Unit: "B", Better: "lower"},
	{Name: "comm.sim_exchange_pct", Unit: "%", Better: "lower"},
	{Name: "comm.sim_gsum_pct", Unit: "%", Better: "lower"},
	{Name: "comm.sim_compute_pct", Unit: "%", Better: "higher"},
	{Name: "comm.exchange_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "comm.gsum_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "comm.barrier_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "comm.busy_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "comm.exec_wait_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "comm.restarts", Unit: "count", Better: "lower"},
	{Name: "comm.checkpoint_rounds", Unit: "count", Better: "lower"},
	{Name: "comm.checkpoint_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "comm.pending_discarded", Unit: "count", Better: "lower"},

	{Name: "cluster.build_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.close_ms", Unit: "ms", Better: "lower"},

	{Name: "gcm.kernel_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "gcm.driver_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "gcm.flops_ps_per_op", Unit: "count", Better: "lower"},
	{Name: "gcm.flops_ds_per_op", Unit: "count", Better: "lower"},
	{Name: "gcm.cg_iters_per_step", Unit: "count", Better: "lower"},
	{Name: "gcm.host_mflops", Unit: "MFlop/s", Better: "higher"},
	{Name: "gcm.kernel.advect_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "gcm.kernel.momentum_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "gcm.solver.cg_ns_per_col_iter", Unit: "ns", Better: "lower"},
	{Name: "gcm.physics_ns_per_col", Unit: "ns", Better: "lower"},
	{Name: "gcm.checkpoint_write_ns_per_byte", Unit: "ns", Better: "lower"},
	{Name: "gcm.checkpoint_restore_ns_per_byte", Unit: "ns", Better: "lower"},
	{Name: "gcm.sim_lost_ms", Unit: "sim_ms", Better: "lower"},
	{Name: "gcm.lost_flops_pct", Unit: "%", Better: "lower"},

	{Name: "host.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "host.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.cpu_user_s", Unit: "s", Better: "lower"},
	{Name: "host.cpu_sys_s", Unit: "s", Better: "lower"},
	{Name: "host.cpu_util", Unit: "ratio", Better: "higher"},

	{Name: "ledger.kernel_pct", Unit: "%", Better: "higher"},
	{Name: "ledger.driver_pct", Unit: "%", Better: "lower"},
	{Name: "ledger.stack_pct", Unit: "%", Better: "lower"},
	{Name: "ledger.predicted_stack_us_per_op", Unit: "us", Better: "lower"},
	{Name: "ledger.residual_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// extras are printed beside the end-to-end metrics by the suite (flag
// -extras); the driver contract has no slot for them.
var extras = []metricDef{
	{Name: "run.block_p50_us_per_op", Unit: "us", Better: "lower"},
	{Name: "run.block_p90_us_per_op", Unit: "us", Better: "lower"},
	{Name: "run.mean_us_per_op", Unit: "us", Better: "lower"},
	{Name: "run.samples", Unit: "count", Better: "higher"},
	{Name: "run.steps_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "run.model_years_per_wall_hour", Unit: "1/h", Better: "higher"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric name to its value.
type metrics map[string]value

// fill builds the report for defs from vals; a metric the workload
// does not exercise reads 0, and sim_err_pct reads -1 where the paper
// publishes no reference (the model is unvalidated there).
func fill(defs []metricDef, vals map[string]float64) metrics {
	m := make(metrics, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && d.Name == "sim_err_pct" {
			v = -1
		}
		m[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return m
}
