package main

// metric declares one reported number. BENCHMARK.json at the repository
// root lists the same names, units and directions; bench_test.go keeps the
// two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are measured with tracing off and printed on every workload.
// Every bound is 0.25 because on a shared 2-CPU host the spread across
// seeds stays above 0.10 at twice the run length: host time on the exact
// workloads, gpusimd's peak memory on service-openloop (README.md,
// "Bounds").
var endToEnd = []metric{
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer come from the traced run. A layer a workload does not exercise
// reports 0.
var perLayer = []metric{
	{Name: "workloads.builds", Unit: "count", Better: "higher"},
	{Name: "workloads.build_s", Unit: "s", Better: "lower"},
	{Name: "workloads.build_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cpu_share.workloads", Unit: "ratio", Better: "lower"},

	{Name: "vm.mapped_mb", Unit: "MB", Better: "lower"},
	{Name: "vm.pt_pages", Unit: "count", Better: "lower"},
	{Name: "cpu_share.vm", Unit: "ratio", Better: "lower"},

	{Name: "gpu.new_ms", Unit: "ms", Better: "lower"},
	{Name: "gpu.run_s", Unit: "s", Better: "lower"},
	{Name: "gpu.check_s", Unit: "s", Better: "lower"},
	{Name: "gpu.sim_cycles", Unit: "cycles", Better: "higher"},
	{Name: "gpu.warp_instrs", Unit: "count", Better: "higher"},
	{Name: "gpu.mem_instrs", Unit: "count", Better: "higher"},
	{Name: "gpu.ns_per_sim_cycle", Unit: "ns", Better: "lower"},
	{Name: "gpu.ns_per_warp_instr", Unit: "ns", Better: "lower"},
	{Name: "gpu.idle_core_cycle_frac", Unit: "ratio", Better: "lower"},
	{Name: "gpu.run_mallocs", Unit: "count", Better: "lower"},
	{Name: "gpu.run_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "cpu_share.gpu", Unit: "ratio", Better: "lower"},

	{Name: "core.tlb_lookups", Unit: "count", Better: "higher"},
	{Name: "core.tlb_miss_rate", Unit: "ratio", Better: "lower"},
	{Name: "core.tlb_hits_under_miss", Unit: "count", Better: "higher"},
	{Name: "core.walks", Unit: "count", Better: "lower"},
	{Name: "core.walk_refs", Unit: "count", Better: "lower"},
	{Name: "core.walk_refs_elim_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.walk_lat_cycles", Unit: "cycles", Better: "lower"},
	{Name: "cpu_share.core", Unit: "ratio", Better: "lower"},

	{Name: "mem.l1_accesses", Unit: "count", Better: "higher"},
	{Name: "mem.l1_miss_rate", Unit: "ratio", Better: "lower"},
	{Name: "mem.l2_accesses", Unit: "count", Better: "higher"},
	{Name: "mem.l2_miss_rate", Unit: "ratio", Better: "lower"},
	{Name: "mem.walk_l2_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "cpu_share.mem", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.engine", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.stats", Unit: "ratio", Better: "lower"},

	{Name: "cpu_share.runtime", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},

	{Name: "experiments.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.execute_s", Unit: "s", Better: "lower"},
	{Name: "experiments.render_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.runs", Unit: "count", Better: "higher"},
	{Name: "experiments.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "experiments.run_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "experiments.worker_util", Unit: "ratio", Better: "higher"},
	{Name: "cpu_share.experiments", Unit: "ratio", Better: "lower"},

	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.poll_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "service.report_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.store_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "service.coalesced_frac", Unit: "ratio", Better: "higher"},
	{Name: "service.simulated", Unit: "count", Better: "lower"},
	{Name: "service.queue_depth_mean", Unit: "count", Better: "lower"},
	{Name: "service.busy_slots_mean", Unit: "count", Better: "lower"},
	{Name: "service.server_cpu_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "service.store_mb", Unit: "MB", Better: "lower"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "service.job_hit_p50_ms.lo", Unit: "ms", Better: "lower"},
	{Name: "service.job_hit_p50_ms.hi", Unit: "ms", Better: "lower"},
	{Name: "service.job_miss_p50_ms.lo", Unit: "ms", Better: "lower"},
	{Name: "service.job_miss_p50_ms.hi", Unit: "ms", Better: "lower"},
	{Name: "service.read_p50_ms.lo", Unit: "ms", Better: "lower"},
	{Name: "service.read_p50_ms.hi", Unit: "ms", Better: "lower"},
	{Name: "service.campaign_hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.campaign_miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.job_p95_ms.lo", Unit: "ms", Better: "lower"},
	{Name: "service.job_p95_ms.hi", Unit: "ms", Better: "lower"},
	{Name: "service.job_p99_ms.hi", Unit: "ms", Better: "lower"},
	{Name: "service.backlog_end.lo", Unit: "count", Better: "lower"},
	{Name: "service.backlog_end.hi", Unit: "count", Better: "lower"},
	{Name: "service.gen_late_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "cpu_share.service", Unit: "ratio", Better: "lower"},

	{Name: "cpu_share.other", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}
