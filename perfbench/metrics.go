package main

// metricDef names one reported metric. The lists below are the
// benchmark's contract with BENCHMARK.json, which must name the same
// metrics with the same units (checked by TestMetricNamesMatchManifest).
type metricDef struct {
	name, unit string
}

// endToEnd metrics come only from untraced runs (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"success_rate", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics come from traced runs (--trace 1). README.md gives
// the public call behind each and the end-to-end metric it should move.
var perLayer = []metricDef{
	{"core.sim_minstr_per_s.md", "Minstr/s"},
	{"core.sim_minstr_per_s.am", "Minstr/s"},
	{"core.sim_minstr_per_s.am-enabled", "Minstr/s"},
	{"core.sim_minstr_per_s.oam", "Minstr/s"},
	{"core.sim_minstr_per_s.offload", "Minstr/s"},
	{"core.sim_minstr_per_s.aa", "Minstr/s"},
	{"core.newsim_us", "us"},
	{"core.compile_ms", "ms"},
	{"core.instructions", "count"},
	{"cache.ns_per_ref.a1", "ns"},
	{"cache.ns_per_ref.a2", "ns"},
	{"cache.ns_per_ref.a4", "ns"},
	{"experiments.replay_ns_per_ref_geom", "ns"},
	{"experiments.record_share", "ratio"},
	{"experiments.critical_path_ms", "ms"},
	{"trace.encode_mb_per_s", "MB/s"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"trace.stream_replay_ns_per_ref_geom", "ns"},
	{"trace.compact_ratio", "ratio"},
	{"tracestore.get_mem_us", "us"},
	{"tracestore.get_disk_us", "us"},
	{"tracestore.put_ms", "ms"},
	{"tracestore.hit_ratio", "ratio"},
	{"server.queue_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.codecache_hit_ratio", "ratio"},
	{"server.result_hit_ratio", "ratio"},
	{"shard.overhead_ms", "ms"},
	{"shard.attempts_per_unit", "count"},
	{"bench.tracing_overhead_pct", "%"},
}
