package main

// metricDef names one reported metric. The two lists below are the
// benchmark's contract with BENCHMARK.json (the tests check that they
// agree): untraced runs report endToEnd, traced runs report perLayer.
type metricDef struct {
	name, unit, better string
}

// endToEnd holds what a user of the system sees, defined on every
// workload. An "op" is the workload's unit of work: a million simulated
// instructions (profile), one pushed 64-envelope frame (ingest), one
// table query (query) or one log recovery (durable). Throughput and tail
// latency of a CPU-saturated closed loop, and fsync latency, moved by up
// to 60% between runs of one seed on a shared two-core host, several
// times more than the per-op medians and costs below, so they are
// per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// modes are the profile workload's run kinds: uninstrumented, the paper's
// three instrumented modes, and flow+hw at path degree k=2.
var modes = []string{"base", "flowhw", "ctxhw", "ctxflow", "flowhw_k2"}

// simEvents are the hardware events reported per mode, by hpm name.
var simEvents = []string{"instrs", "cycles", "dcache-miss", "icache-miss", "mispredict-stalls", "storebuf-stalls"}

// routes are the collector routes the service workloads call.
var routes = []string{"ingest", "table3", "table4", "table5", "table_metrics"}

// perLayer is every per-layer metric, in catalog order. Metrics a workload
// does not exercise read 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := []metricDef{
		// Workload-level throughput and latency.
		{"sim_minstr_per_s", "Minstr/s", "higher"},
		{"ingest_env_per_s", "env/s", "higher"},
		{"query_per_s", "1/s", "higher"},
		{"push_p50_ms", "ms", "lower"},
		{"push_p99_ms", "ms", "lower"},
		{"query_p50_ms", "ms", "lower"},
		{"query_p99_ms", "ms", "lower"},
		{"recover_s", "s", "lower"},
		{"failed_frac", "fraction", "lower"},
		{"overhead_flowhw_x", "ratio", "lower"},
		{"overhead_ctxhw_x", "ratio", "lower"},
		{"overhead_ctxflow_x", "ratio", "lower"},
		{"overhead_flowhw_k2_x", "ratio", "lower"},

		// Profile: set-up, instrumentation, simulator, CCT.
		{"workload.build_ms", "ms", "lower"},
		{"instrument.plan_ms", "ms", "lower"},
	}
	for _, m := range modes[1:] {
		ms = append(ms, metricDef{"instrument.static_growth." + m, "ratio", "lower"})
	}
	for _, m := range modes {
		ms = append(ms, metricDef{"sim.ns_per_instr." + m, "ns", "lower"})
	}
	for _, ev := range simEvents {
		for _, m := range modes {
			ms = append(ms, metricDef{"sim." + ev + "." + m, "count", "lower"})
		}
	}
	ms = append(ms,
		metricDef{"instrument.extract_ms", "ms", "lower"},
		metricDef{"cct.nodes", "count", "lower"},
		metricDef{"cct.heap_kb", "KiB", "lower"},
		metricDef{"profile.rows.flowhw", "count", "lower"},
		metricDef{"profile.rows.ctxflow", "count", "lower"},
		metricDef{"profile.rows.flowhw_k2", "count", "lower"},

		// Service: wire, admission, fold, HTTP.
		metricDef{"wire.encode_us_per_env", "us", "lower"},
		metricDef{"wire.frame_bytes_per_env", "B", "lower"},
		metricDef{"wire.decode_us_per_env", "us", "lower"},
		metricDef{"collector.fold_us_per_env", "us", "lower"},
	)
	for _, q := range []string{"p50", "p99"} {
		for _, r := range routes {
			ms = append(ms, metricDef{"collector.handler_" + q + "_us." + r, "us", "lower"})
		}
	}
	ms = append(ms,
		metricDef{"http.overhead_p50_us", "us", "lower"},
		metricDef{"collector.queue_depth_max", "count", "lower"},
		metricDef{"collector.inflight_max", "count", "lower"},
		metricDef{"collector.rejected", "count", "lower"},
		metricDef{"collector.retries", "count", "lower"},

		// Query: snapshot, merge, classify, render.
		metricDef{"collector.merged_profile_us", "us", "lower"},
		metricDef{"collector.merged_export_us", "us", "lower"},
		metricDef{"experiments.table4_us", "us", "lower"},
		metricDef{"analysis.classify_procs_us", "us", "lower"},
		metricDef{"cct.stats_us", "us", "lower"},
		metricDef{"experiments.render_us", "us", "lower"},
		metricDef{"bench.gen_late_p99_ms", "ms", "lower"},

		// Durable: group commit and replay.
		metricDef{"store.appends_per_fsync", "count", "higher"},
		metricDef{"store.fsync_us", "us", "lower"},
		metricDef{"store.append_wait_us", "us", "lower"},
		metricDef{"store.bytes_per_env", "B", "lower"},
		metricDef{"store.replay_records", "count", "lower"},
		metricDef{"store.replay_ms", "ms", "lower"},

		// Go runtime over the timed section.
		metricDef{"go.alloc_bytes_per_op", "B", "lower"},
		metricDef{"go.gc_cycles", "count", "lower"},
		metricDef{"go.gc_pause_p99_ms", "ms", "lower"},

		metricDef{"bench.trace_overhead_pct", "%", "lower"},
	)
	return ms
}
