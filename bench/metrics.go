package main

// e2eUnits names every end-to-end metric and its unit; BENCHMARK.json lists
// the same names with their bounds. Every workload reports every one.
var e2eUnits = map[string]string{
	"setup_s":              "s",
	"decided_per_s":        "1/s",
	"turnaround_p50_ms":    "ms",
	"turnaround_p95_ms":    "ms",
	"cpu_ms_per_decided":   "ms",
	"alloc_kb_per_decided": "KB",
	"builds_per_commit":    "count",
	"worker_ms_per_commit": "ms",
	"peak_rss_mb":          "MB",
}

// layerUnits names every per-layer metric of a traced run and its unit. The
// result line must name them all, so a metric a workload's traced run does
// not measure (a probe that runs beside another workload, the journal's
// counts on sim_replay, the simulator's on serve_mix) reads 0 there.
var layerUnits = map[string]string{
	// api + serving tier (serve_mix; handlers from its probe)
	"api.submit_handler_us":    "us",
	"api.state_handler_us":     "us",
	"api.status_handler_us":    "us",
	"api.submit_allocs_per_op": "count",
	"api.submit_tcp_p50_us":    "us",
	"api.submit_tcp_p99_us":    "us",
	"api.state_tcp_p50_us":     "us",
	"api.throttled_429":        "count",
	"serve.requests_per_s":     "1/s",
	"serve.submit_p50_ms":      "ms",
	// store (serve_mix's probe, on a file inside the checkout)
	"store.append_us":         "us",
	"store.fsyncs_per_append": "ratio",
	"store.replay_ms_per_10k": "ms",
	"store.snapshot_ms":       "ms",
	// core
	"core.submit_us":               "us",
	"core.state_us":                "us",
	"core.tick_ms_p50":             "ms",
	"core.tick_ms_p95":             "ms",
	"core.process_all_ms_per_wave": "ms",
	// queue, buildgraph
	"queue.enqueue_us":           "us",
	"queue.pending_us.k1024":     "us",
	"buildgraph.analyze_cold_ms": "ms",
	"buildgraph.analyze_incr_us": "us",
	// conflict
	"conflict.analyze_cold_us":             "us",
	"conflict.build_graph_cold_ms.k64":     "ms",
	"conflict.build_graph_cold_ms.k256":    "ms",
	"conflict.build_graph_cold_ms.k1024":   "ms",
	"conflict.build_graph_incr_ms.k64":     "ms",
	"conflict.build_graph_incr_ms.k256":    "ms",
	"conflict.build_graph_incr_ms.k1024":   "ms",
	"conflict.graph_builds_per_decided":    "count",
	"conflict.pairs_rescanned_per_decided": "count",
	"conflict.pair_cache_hit_ratio":        "ratio",
	"conflict.reused_analyses_ratio":       "ratio",
	"conflict.conservative_edges":          "count",
	// shard
	"shard.partition_ms.k64":       "ms",
	"shard.partition_ms.k256":      "ms",
	"shard.partition_ms.k1024":     "ms",
	"shard.heavy_partition_ratio":  "ratio",
	"shard.rebalanced_per_decided": "count",
	// speculation
	"speculation.plan_us.k64":              "us",
	"speculation.plan_us.k256":             "us",
	"speculation.plan_us.k1024":            "us",
	"speculation.predictor_calls_per_plan": "count",
	// planner
	"planner.tick_ms.k64":                     "ms",
	"planner.tick_ms.k256":                    "ms",
	"planner.tick_ms.k1024":                   "ms",
	"planner.prefix_hit_ratio":                "ratio",
	"planner.plans_skipped_ratio":             "ratio",
	"planner.prep_ops_per_build":              "count",
	"planner.obsolete_aborted_per_commit":     "count",
	"planner.cross_shard_rebuilds_per_commit": "count",
	// buildsys
	"buildsys.dispatch_us":       "us",
	"buildsys.units_per_build":   "count",
	"buildsys.cache_skip_ratio":  "ratio",
	"buildsys.aborted_ratio":     "ratio",
	"buildsys.waste_ratio":       "ratio",
	"buildsys.runner_busy_share": "ratio",
	// arbiter, repo
	"arbiter.commit_us":                     "us",
	"arbiter.cross_shard_checks_per_commit": "count",
	"arbiter.cross_shard_reject_ratio":      "ratio",
	"arbiter.max_queue_depth":               "count",
	"repo.apply_us":                         "us",
	"repo.commit_us":                        "us",
	"repo.content_id_us":                    "us",
	// reliability (build_bound)
	"reliability.retries_per_build":  "count",
	"reliability.flaky_detected":     "count",
	"reliability.rejections_averted": "count",
	"reliability.false_rejections":   "count",
	// events + per-change stage waits from the bus
	"events.publish_us":        "us",
	"events.dropped":           "count",
	"stage.queue_wait_ms_mean": "ms",
	"stage.build_ms_mean":      "ms",
	"stage.decide_ms_mean":     "ms",
	"stage.turnaround_ms_mean": "ms",
	// predictor, workload generator, simulator (sim_replay)
	"predict.train_s":           "s",
	"predict.call_ns":           "ns",
	"predict.calls_per_decided": "count",
	"workload.generate_s":       "s",
	"sim.run_s":                 "s",
	"sim.strategy_plan_s":       "s",
	"sim.strategy_plan_calls":   "count",
	"sim.engine_self_s":         "s",
	"sim.builds_aborted_ratio":  "ratio",
	// the harness itself
	"harness.calib_mops":         "MB/s",
	"harness.late_p99_ms":        "ms",
	"harness.trace_overhead_pct": "%",
}
