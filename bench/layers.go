package main

import (
	"fmt"
	"time"

	"mastergreen/internal/arbiter"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/metrics"
	"mastergreen/internal/planner"
	"mastergreen/internal/reliability"
	"mastergreen/internal/shard"
	"mastergreen/internal/sim"
)

// counters is one reading of every Stats getter a live service exposes; the
// per-layer counts of a traced run are differences of two readings taken at
// the ends of the measured section.
type counters struct {
	build    buildsys.Stats
	analyzer conflict.Stats
	planner  planner.Stats
	shard    shard.Stats
	arbiter  arbiter.Stats
	rel      reliability.Stats
	bus      events.Stats
	predict  int // predictor calls (counting predictor, traced runs only)
}

func readCounters(svc *core.Service, bus *events.Bus, pred *countingPredictor) counters {
	c := counters{
		build: svc.BuildStats(), analyzer: svc.AnalyzerStats(), planner: svc.PlannerStats(),
		shard: svc.ShardStats(), arbiter: svc.ArbiterStats(), rel: svc.ReliabilityStats(), bus: bus.Stats(),
	}
	if pred != nil {
		c.predict = pred.count()
	}
	return c
}

func committedOf(outs []planner.Outcome) int {
	n := 0
	for _, o := range outs {
		if o.State == change.StateCommitted {
			n++
		}
	}
	return n
}

// fillCounterLayers turns the counter deltas of a measured section into the
// per-layer ratios. outs are the decisions of the section, workers the build
// controller's pool and wall the section's wall time.
func fillCounterLayers(layer map[string]float64, a, b counters, outs []planner.Outcome, workers int, wall time.Duration) {
	f := func(x, y int) float64 { return float64(y - x) }
	decided, committed := float64(len(outs)), float64(committedOf(outs))

	an0, an1 := a.analyzer, b.analyzer
	layer["conflict.graph_builds_per_decided"] = ratio(f(an0.GraphBuilds, an1.GraphBuilds), decided)
	layer["conflict.pairs_rescanned_per_decided"] = ratio(f(an0.PairsRescanned, an1.PairsRescanned), decided)
	hits := f(an0.PairCacheHits, an1.PairCacheHits)
	layer["conflict.pair_cache_hit_ratio"] = ratio(hits,
		hits+f(an0.CheapComparisons, an1.CheapComparisons)+f(an0.UnionComparisons, an1.UnionComparisons))
	reused := f(an0.ReusedAnalyses, an1.ReusedAnalyses)
	layer["conflict.reused_analyses_ratio"] = ratio(reused, reused+f(an0.AnalyzedChanges, an1.AnalyzedChanges))
	layer["conflict.conservative_edges"] = f(an0.ConservativeEdges, an1.ConservativeEdges)

	layer["shard.heavy_partition_ratio"] = ratio(f(a.shard.HeavyPartitions, b.shard.HeavyPartitions),
		f(a.shard.Partitions, b.shard.Partitions))
	layer["shard.rebalanced_per_decided"] = ratio(f(a.shard.Rebalanced, b.shard.Rebalanced), decided)

	p0, p1 := a.planner, b.planner
	plans := f(p0.PlansComputed, p1.PlansComputed)
	layer["speculation.predictor_calls_per_plan"] = ratio(f(a.predict, b.predict), plans)
	prefixHits := f(p0.PrefixHits, p1.PrefixHits)
	layer["planner.prefix_hit_ratio"] = ratio(prefixHits, prefixHits+f(p0.PrefixMisses, p1.PrefixMisses))
	skipped := f(p0.PlansSkipped, p1.PlansSkipped)
	layer["planner.plans_skipped_ratio"] = ratio(skipped, skipped+plans)
	layer["planner.prep_ops_per_build"] = ratio(f(p0.PrepOps(), p1.PrepOps()), f(p0.BuildsStarted, p1.BuildsStarted))
	layer["planner.obsolete_aborted_per_commit"] = ratio(f(p0.ObsoleteAborted, p1.ObsoleteAborted), committed)
	layer["planner.cross_shard_rebuilds_per_commit"] = ratio(f(p0.CrossShardRebuilds, p1.CrossShardRebuilds), committed)

	b0, b1 := a.build, b.build
	builds := f(b0.Builds, b1.Builds)
	layer["buildsys.units_per_build"] = ratio(f(b0.Executed, b1.Executed), builds)
	cacheSkips := f(b0.SkippedCache, b1.SkippedCache)
	layer["buildsys.cache_skip_ratio"] = ratio(cacheSkips, cacheSkips+f(b0.CacheMisses, b1.CacheMisses))
	layer["buildsys.aborted_ratio"] = ratio(f(b0.Aborted, b1.Aborted), builds)
	wasted, useful := float64(b1.WastedTime-b0.WastedTime), float64(b1.UsefulTime-b0.UsefulTime)
	layer["buildsys.waste_ratio"] = ratio(wasted, wasted+useful)
	layer["buildsys.runner_busy_share"] = ratio(float64(b1.ExecTime-b0.ExecTime), float64(workers)*float64(wall))

	ar0, ar1 := a.arbiter, b.arbiter
	commits, rejects := f(ar0.Commits, ar1.Commits), f(ar0.CrossShardRejects, ar1.CrossShardRejects)
	layer["arbiter.cross_shard_checks_per_commit"] = ratio(f(ar0.CrossShardChecks, ar1.CrossShardChecks), commits)
	layer["arbiter.cross_shard_reject_ratio"] = ratio(rejects, rejects+commits)
	layer["arbiter.max_queue_depth"] = float64(ar1.MaxQueueDepth)

	layer["reliability.retries_per_build"] = ratio(f(a.rel.Retries, b.rel.Retries), builds)
	layer["reliability.flaky_detected"] = f(a.rel.FlakesConfirmed, b.rel.FlakesConfirmed)
	layer["reliability.rejections_averted"] = f(a.rel.RejectionsAverted, b.rel.RejectionsAverted)
	layer["events.dropped"] = float64(b.bus.Dropped - a.bus.Dropped)
}

func usOf(msValues []float64, p float64) float64 {
	return 1000 * metrics.Percentile(msValues, p)
}

func fillWindowLayers(r *result, w *windowRun, tr *tracer, sec *section, outs []planner.Outcome, a, b counters) {
	fillCounterLayers(r.layer, a, b, outs, wdWorkers, sec.wall())
	r.layer["core.submit_us"] = 1000 * metrics.Mean(tr.durations("core.Submit"))
	ticks := tr.durations("core.Tick")
	r.layer["core.tick_ms_p50"] = metrics.Percentile(ticks, 50)
	r.layer["core.tick_ms_p95"] = metrics.Percentile(ticks, 95)
}

func fillServeLayers(r *result, s *serveStack, tr *tracer, sec *section, outs []planner.Outcome, a, b counters,
	requests int, httpTime time.Duration, posts []float64) {
	fillCounterLayers(r.layer, a, b, outs, smWorkers, sec.wall())
	r.layer["serve.requests_per_s"] = ratio(float64(requests), httpTime.Seconds())
	r.layer["serve.submit_p50_ms"] = metrics.Percentile(posts, 50)
	r.layer["api.submit_tcp_p50_us"] = usOf(posts, 50)
	r.layer["api.submit_tcp_p99_us"] = usOf(posts, 99)
	r.layer["api.state_tcp_p50_us"] = usOf(tr.durations("http.GET change"), 50)
	r.layer["api.throttled_429"] = float64(s.throttled)
	r.layer["core.process_all_ms_per_wave"] = metrics.Mean(tr.durations("core.ProcessAll"))
}

func fillBoundLayers(r *result, b *boundRun, tr *tracer, sec *section, outs []planner.Outcome, c0, c1 counters, falseRejections int) {
	fillCounterLayers(r.layer, c0, c1, outs, bbWorkers, sec.wall())
	r.layer["core.submit_us"] = 1000 * metrics.Mean(tr.durations("core.Submit"))
	r.layer["harness.late_p99_ms"] = metrics.Percentile(b.lateMs, 99)
	r.layer["reliability.false_rejections"] = float64(falseRejections)
}

func fillSimLayers(r *result, s *simSetup, p *simProbes, pool *sim.Result, changes float64) {
	r.layer["predict.train_s"] = s.trainS
	r.layer["workload.generate_s"] = s.generateS
	r.layer["predict.call_ns"] = ratio(float64(p.predNs), float64(p.predTimed))
	r.layer["predict.calls_per_decided"] = ratio(float64(p.predCalls), changes)
	r.layer["speculation.predictor_calls_per_plan"] = ratio(float64(p.predCalls), float64(p.planCalls))
	r.layer["sim.run_s"] = p.runS
	r.layer["sim.strategy_plan_s"] = p.planS
	r.layer["sim.strategy_plan_calls"] = float64(p.planCalls)
	r.layer["sim.engine_self_s"] = p.runS - p.planS
	r.layer["sim.builds_aborted_ratio"] = ratio(float64(pool.BuildsAborted), float64(pool.BuildsStarted))
}

// runTraced produces the per-layer metrics: the workload once untraced as the
// overhead reference and once traced, and the layer probes that belong to the
// workload (see layerProbes); spans and the per-layer table are written to
// path at the end.
func runTraced(run workloadFunc, p params, path string) (*result, error) {
	tr := newTracer()
	probeLayers := map[string]float64{}
	calib := calibrate()
	probes := layerProbes[p.workload]
	for _, probe := range probes.before {
		if err := probe(p.seed, probeLayers, tr); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	ref, err := run(p)
	if err != nil {
		return nil, err
	}
	p.tr = tr
	r, err := run(p)
	if err != nil {
		return nil, err
	}
	for _, probe := range probes.after {
		if err := probe(p.seed, probeLayers, tr); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	for name, v := range probeLayers {
		r.layer[name] = v
	}
	r.failed += ref.failed
	r.problems = append(r.problems, ref.problems...)
	r.layer["harness.trace_overhead_pct"] = 100 * ratio(ref.e2e["decided_per_s"]-r.e2e["decided_per_s"], ref.e2e["decided_per_s"])
	r.layer["harness.calib_mops"] = (calib + calibrate()) / 2
	if ref.hashKind != "free" && ref.hash != r.hash {
		r.fail(1, "traced run decided differently from the untraced run of the same seed (%s vs %s)", r.hash, ref.hash)
	}
	r.notes["trace_file"] = path
	r.notes["untraced_decided_per_s"] = fmt.Sprintf("%.3f", ref.e2e["decided_per_s"])
	if err := tr.write(path, r); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	return r, nil
}
