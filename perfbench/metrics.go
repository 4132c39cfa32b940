package main

// metricDef names one reported metric. target is the end-to-end metric
// and workload a per-layer metric should move; BENCHMARK.json lists the
// same names and units (TestMetricNamesMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better, target string
}

// endToEnd are the untraced metrics every workload reports. An operation
// is one request (serve-zipf), one analyzed corpus set (sweep) or one
// RunFleet call (fleet). ops_per_s is, per workload: the throughput
// sustained on the highest ladder rung meeting the latency SLO
// (serve-zipf), sets/s (sweep) and Monte-Carlo runs/s (fleet). Failed
// operations are the result's "failed" count against "attempted". The
// p99 latency is printed with the result but is no end-to-end metric: on
// a shared 2-vCPU host, CPU steal moved serve-zipf's p99 by 0.6-1.0 of
// its median between runs, more than any bound can absorb.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"p50_ms", "ms", "lower", ""},
	{"ops_per_s", "1/s", "higher", ""},
	{"peak_rss_mb", "MiB", "lower", ""},
}

// layerMetrics are the traced run's per-layer metrics. An "_us" metric
// is the mean self time per call of the span of that name.
var layerMetrics = []metricDef{
	{"loadgen.lag_p99_ms", "ms", "lower", "validity check: serve-zipf is invalid if it grows"},
	{"net.overhead_us", "us", "lower", "p50_ms serve-zipf"},
	{"server.handler_us", "us", "lower", "p50_ms serve-zipf"},
	{"server.unattributed_share", "ratio", "lower", "none: checks that the phases add up"},
	{"task.parse_us", "us", "lower", "p50_ms serve-zipf"},
	{"task.fingerprint_us", "us", "lower", "p50_ms serve-zipf"},
	{"cache.get_us", "us", "lower", "p50_ms serve-zipf"},
	{"cache.put_us", "us", "lower", "ops_per_s serve-zipf"},
	{"cache.hit_ratio", "ratio", "higher", "ops_per_s serve-zipf"},
	{"cache.evictions_per_s", "1/s", "lower", "ops_per_s serve-zipf"},
	{"cluster.coalesce_dedup_ratio", "ratio", "higher", "ops_per_s serve-zipf"},
	{"server.reject_ratio", "ratio", "lower", "failed, ops_per_s serve-zipf"},
	{"core.analyze_us", "us", "lower", "ops_per_s serve-zipf"},
	{"core.encode_us", "us", "lower", "ops_per_s serve-zipf"},
	{"server.allocs_per_req", "count", "lower", "peak_rss_mb serve-zipf"},
	{"gen.set_us", "us", "lower", "ops_per_s sweep"},
	{"core.minimal_x_us", "us", "lower", "ops_per_s sweep"},
	{"core.lo_test_us", "us", "lower", "ops_per_s sweep"},
	{"core.speedup_us", "us", "lower", "ops_per_s sweep"},
	{"core.reset_us", "us", "lower", "ops_per_s sweep"},
	{"core.design_us", "us", "lower", "ops_per_s sweep"},
	{"core.speedup_events", "count", "lower", "ops_per_s sweep"},
	{"core.speedup_jumps", "count", "higher", "ops_per_s sweep"},
	{"core.reset_events", "count", "lower", "ops_per_s sweep"},
	{"core.allocs_per_set", "count", "lower", "ops_per_s, peak_rss_mb sweep"},
	{"par.efficiency", "ratio", "higher", "ops_per_s sweep, fleet"},
	{"sim.compile_us", "us", "lower", "setup_s fleet"},
	{"gen.workload_us", "us", "lower", "ops_per_s fleet"},
	{"sim.run_us", "us", "lower", "ops_per_s fleet"},
	{"sim.jobs_per_run", "count", "lower", "ops_per_s fleet"},
	{"fleet.reduce_share", "ratio", "lower", "ops_per_s fleet"},
	{"sim.sync_fms_us", "us", "lower", "none: settles the SimRunFMS figure"},
	{"trace.overhead_share", "ratio", "lower", "none: traced p50_ms / untraced p50_ms - 1"},
}

// layerSelf copies the mean self time of each span name into the metric
// of the same name with an "_us" suffix, for every span that ran.
func layerSelf(out *outcome, self map[string]selfStat, names ...string) {
	for _, n := range names {
		if st, ok := self[n]; ok {
			out.layers[n+"_us"] = st.meanUs()
		}
	}
}
