package main

// metric is one reported number. The two tables below are the benchmark's
// vocabulary; BENCHMARK.json at the repository root repeats them and a test
// keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the worsening, as a share of the parent's median, allowed
	// before a change counts as a regression (end-to-end metrics only).
	bound float64
}

// endToEnd are the untraced run's metrics, reported by every workload. An
// "op" is a cell on cold-cells and sweep-warm and a request on serve-mixed;
// op_tail_ms is the percentile tailQuantile names. The bounds follow the
// run-to-run spread measured on a 2-vCPU virtual machine (README.md): host
// noise moves wall-clock results by 5-14% between runs there, and by up to
// 35% in slow phases, so the timing bounds sit at the largest allowed share
// and memory's at a tenth.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.10},
}

// perLayer are the traced run's metrics. Every traced run reports all of
// them; a layer the workload never reaches reads 0 (the campaign layer on
// cold-cells, the component replays off cold-cells, and so on). README.md
// maps each to the end-to-end metric and workload it should move.
var perLayer = []metric{
	{name: "sim.new_ms", unit: "ms", better: "lower"},
	{name: "sim.warmup_ms", unit: "ms", better: "lower"},
	{name: "sim.restore_ms", unit: "ms", better: "lower"},
	{name: "sim.run_ms", unit: "ms", better: "lower"},
	{name: "sim.snapshot_ms", unit: "ms", better: "lower"},
	{name: "sim.snapshot_kb", unit: "KB", better: "lower"},
	{name: "sim.render_us", unit: "us", better: "lower"},

	{name: "pipeline.ns_per_inst", unit: "ns", better: "lower"},
	{name: "pipeline.ns_per_cycle", unit: "ns", better: "lower"},
	{name: "pipeline.self_ns_per_inst", unit: "ns", better: "lower"},
	{name: "pipeline.insts", unit: "count", better: "higher"},
	{name: "pipeline.cycles", unit: "count", better: "higher"},
	{name: "pipeline.violations", unit: "count", better: "lower"},
	{name: "pipeline.replays", unit: "count", better: "lower"},

	{name: "workload.next_ns", unit: "ns", better: "lower"},
	{name: "mem.inst_access_ns", unit: "ns", better: "lower"},
	{name: "mem.data_access_ns", unit: "ns", better: "lower"},
	{name: "mem.l1d_miss_ratio", unit: "ratio", better: "lower"},
	{name: "mem.l2_miss_ratio", unit: "ratio", better: "lower"},
	{name: "bpred.update_ns", unit: "ns", better: "lower"},
	{name: "bpred.mispredict_ratio", unit: "ratio", better: "lower"},
	{name: "tep.lookup_ns", unit: "ns", better: "lower"},
	{name: "tep.train_ns", unit: "ns", better: "lower"},
	{name: "fault.violates_ns", unit: "ns", better: "lower"},
	{name: "core.order_abs_ns", unit: "ns", better: "lower"},
	{name: "core.order_ffs_ns", unit: "ns", better: "lower"},
	{name: "core.order_cds_ns", unit: "ns", better: "lower"},

	{name: "campaign.cell_ms", unit: "ms", better: "lower"},
	{name: "campaign.restored_ratio", unit: "ratio", better: "higher"},
	{name: "campaign.executor_idle_pct", unit: "%", better: "lower"},
	{name: "campaign.journal_append_us", unit: "us", better: "lower"},
	{name: "campaign.warm_groups", unit: "count", better: "higher"},

	{name: "serve.hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.memory_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.store_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.hit_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.miss_p90_ms", unit: "ms", better: "lower"},
	{name: "serve.cache_lookup_us", unit: "us", better: "lower"},
	{name: "serve.admission_us", unit: "us", better: "lower"},
	{name: "serve.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "serve.simulate_ms", unit: "ms", better: "lower"},
	{name: "serve.restored_ratio", unit: "ratio", better: "higher"},
	{name: "serve.rejected", unit: "count", better: "lower"},

	{name: "store.hits", unit: "count", better: "higher"},
	{name: "store.misses", unit: "count", better: "lower"},
	{name: "store.puts", unit: "count", better: "lower"},
	{name: "store.get_us", unit: "us", better: "lower"},
	{name: "store.put_ms", unit: "ms", better: "lower"},

	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.residual_pct", unit: "%", better: "lower"},
}
