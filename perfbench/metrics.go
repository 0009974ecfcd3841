package main

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (pinned by a test).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves names the end-to-end metrics and workloads a per-layer
	// metric should move: the layer-to-end-to-end map.
	Moves string `json:"-"`
}

// endToEnd are the metrics every untraced run reports, for every
// workload, each summarised over the run's passes. An operation is one
// registry experiment call (batch workloads) or one request
// (serve-mix); a point is an operation (batch) or one sweep point
// answered (serve-mix).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", ""},          // host time of one pass of the workload (median)
	{"setup_s", "s", "lower", ""},         // process start until the workload takes input (median)
	{"peak_rss_mib", "MiB", "lower", ""},  // peak resident set of the process running a pass (mean)
	{"events_per_s", "1/s", "higher", ""}, // engine events dispatched per wall second
	{"op_p50_ms", "ms", "lower", ""},      // median operation latency (see timedRun)
	{"op_tail_ms", "ms", "lower", ""},     // tail operation latency (see tailPercentile)
	{"points_per_s", "1/s", "higher", ""}, // points answered per wall second (median)
}

// perLayer are the metrics every traced run reports. A metric of a
// layer the workload does not reach reads 0. <m>.self_s is CPU time
// charged to the innermost provirt/internal/<m> frame.
var perLayer = []metricDef{
	{"harness.tables.wall_s", "s", "lower", "wall_s on paper-figs"},
	{"harness.fig5.wall_s", "s", "lower", "wall_s on paper-figs"},
	{"harness.fig5scale.wall_s", "s", "lower", "wall_s on paper-figs"},
	{"harness.fig6.wall_s", "s", "lower", "wall_s on paper-figs"},
	{"harness.fig7.wall_s", "s", "lower", "wall_s on paper-figs"},
	{"harness.fig8.wall_s", "s", "lower", "wall_s on paper-figs"},
	{"harness.icache.wall_s", "s", "lower", "wall_s on paper-figs"},
	{"harness.memory.wall_s", "s", "lower", "wall_s on paper-figs"},
	{"harness.ftsweep.wall_s", "s", "lower", "wall_s on paper-figs"},
	{"harness.elastic.wall_s", "s", "lower", "wall_s on paper-figs"},
	{"sweep.point_ms.p50", "ms", "lower", "wall_s on table2"},
	{"sweep.point_ms.max", "ms", "lower", "wall_s on table2"},
	{"scenario.build_s", "s", "lower", "wall_s, peak_rss_mib on table2"},
	{"scenario.run_s", "s", "lower", "wall_s, peak_rss_mib on table2"},
	{"core.self_s", "s", "lower", "wall_s, peak_rss_mib on table2; flat on scale"},
	{"core.setup_us_per_rank", "us", "lower", "wall_s, peak_rss_mib on table2; flat on scale"},
	{"elf.self_s", "s", "lower", "wall_s on table2"},
	{"loader.self_s", "s", "lower", "wall_s on table2"},
	{"mem.self_s", "s", "lower", "wall_s, peak_rss_mib on table2; wall_s on paper-figs"},
	{"mem.snapshots", "count", "lower", "wall_s, peak_rss_mib on table2; wall_s on paper-figs"},
	{"mem.snapshot_full_mib", "MiB", "lower", "wall_s, peak_rss_mib on table2; wall_s on paper-figs"},
	{"mem.snapshot_delta_mib", "MiB", "lower", "wall_s, peak_rss_mib on table2; wall_s on paper-figs"},
	{"mem.arena_mib", "MiB", "lower", "wall_s, peak_rss_mib on table2; wall_s on paper-figs"},
	{"mem.block_reuse_ratio", "ratio", "higher", "wall_s, peak_rss_mib on table2; wall_s on paper-figs"},
	{"ult.self_s", "s", "lower", "wall_s on paper-figs"},
	{"ult.switches", "count", "lower", "wall_s on paper-figs"},
	{"ult.ns_per_switch", "ns", "lower", "wall_s on paper-figs"},
	{"sim.self_s", "s", "lower", "wall_s, events_per_s on scale"},
	{"sim.events", "count", "lower", "wall_s, events_per_s on scale"},
	{"sim.queue_high_water", "count", "lower", "wall_s, events_per_s on scale"},
	{"sim.node_reuse_ratio", "ratio", "higher", "wall_s, events_per_s on scale"},
	{"sim.windows", "count", "lower", "wall_s, events_per_s on scale"},
	{"sim.window_events.p50", "count", "higher", "wall_s, events_per_s on scale"},
	{"sim.domain_idle_windows", "count", "lower", "wall_s, events_per_s on scale"},
	{"sim.cross_domain_events", "count", "lower", "wall_s, events_per_s on scale"},
	{"ampi.self_s", "s", "lower", "wall_s on scale, paper-figs"},
	{"ampi.unexpected", "count", "lower", "wall_s on scale, paper-figs"},
	{"ampi.spills", "count", "lower", "wall_s on scale, paper-figs"},
	{"ampi.migrations", "count", "lower", "wall_s on scale, paper-figs"},
	{"ampi.migrated_mib", "MiB", "lower", "wall_s on scale, paper-figs"},
	{"ampi.flat_build_s", "s", "lower", "wall_s on scale"},
	{"ampi.flat_allreduce_s", "s", "lower", "wall_s on scale"},
	{"ampi.flat_storm_s", "s", "lower", "wall_s on scale"},
	{"ampi.host_bytes_per_rank", "B", "lower", "peak_rss_mib on scale"},
	{"lb.self_s", "s", "lower", "wall_s on table2"},
	{"ft.self_s", "s", "lower", "wall_s on paper-figs"},
	{"ft.recoveries", "count", "lower", "wall_s on paper-figs"},
	{"ft.restored_mib", "MiB", "lower", "wall_s on paper-figs"},
	{"ft.drain_checkpoints", "count", "lower", "wall_s on paper-figs"},
	{"ft.epochs", "count", "lower", "wall_s on paper-figs"},
	{"machine.self_s", "s", "lower", "wall_s on scale"},
	{"runtime.alloc_mib", "MiB", "lower", "wall_s, peak_rss_mib on table2"},
	{"runtime.gc_cycles", "count", "lower", "wall_s, peak_rss_mib on table2"},
	{"runtime.gc_cpu_s", "s", "lower", "wall_s, peak_rss_mib on table2"},
	{"runtime.other_s", "s", "lower", "wall_s on every workload"},
	{"bench.trace_overhead_s", "s", "lower", "none: traced minus untraced wall_s"},
}

// serveLayer are the per-layer metrics of the serve and resultstore
// layers, which only serve-mix reaches. serve-mix is not among the
// workloads BENCHMARK.json gates (see servemix.go), so these are not in
// its per_layer list; a traced serve-mix run reports them after
// perLayer.
var serveLayer = []metricDef{
	{"resultstore.self_s", "s", "lower", "op_p50_ms on serve-mix"},
	{"resultstore.evictions", "count", "lower", "op_p50_ms on serve-mix"},
	{"resultstore.corrupt_skipped", "count", "lower", "must stay 0 on serve-mix"},
	{"serve.self_s", "s", "lower", "op_p50_ms, op_tail_ms on serve-mix"},
	{"serve.hit_ratio", "ratio", "higher", "op_p50_ms on serve-mix"},
	{"serve.hit_req_ms.p50", "ms", "lower", "op_p50_ms on serve-mix"},
	{"serve.miss_req_ms.p50", "ms", "lower", "op_tail_ms, points_per_s on serve-mix"},
	{"serve.points_executed", "count", "lower", "op_tail_ms, points_per_s on serve-mix"},
	{"serve.dedup_joins", "count", "higher", "op_tail_ms, points_per_s on serve-mix"},
	{"serve.queue_high_water", "count", "lower", "op_tail_ms, points_per_s on serve-mix"},
	{"serve.point_errors", "count", "lower", "must stay 0 on serve-mix"},
}

// layerMetrics are the per-layer metrics a traced run of workload
// reports.
func layerMetrics(workload string) []metricDef {
	if workload == "serve-mix" {
		return append(append([]metricDef(nil), perLayer...), serveLayer...)
	}
	return perLayer
}
