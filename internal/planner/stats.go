package planner

import "mastergreen/internal/metrics"

// Stats counts planner work, layer by layer, so the incremental-epoch
// machinery (DESIGN.md §4f) is observable and benchmarkable: the prefix
// preparation trie, the plan-fingerprint memo, the dynamic-key cache, and
// the finished-build garbage collector.
type Stats struct {
	// BuildsStarted counts controller tasks launched by startBuild.
	BuildsStarted int

	// Shared-prefix preparation cache (the per-head trie).
	PrefixHits          int // trie nodes reused while preparing a build
	PrefixMisses        int // trie nodes computed (one patch apply + one analyze each)
	PrefixInvalidations int // trie resets (head movement or size cap)
	HeadGraphBuilds     int // head-graph analyses (once per head)

	// Raw preparation work: SnapshotAnalyses is the number of
	// buildgraph.Analyze calls issued while preparing builds, PatchApplies
	// the number of single-patch snapshot applications.
	SnapshotAnalyses int
	PatchApplies     int

	// Plan/reconcile memoization.
	PlansComputed int // epochs that ran decide + spec.Plan + reconcile
	PlansSkipped  int // epochs skipped because the input fingerprint was unchanged

	// Bounded bookkeeping.
	KeysComputed   int // dynamic keys rebuilt from the committed history
	KeysCached     int // dynamic keys served from the per-build cache
	FinishedPruned int // finished builds garbage-collected

	// CrossShardRebuilds counts decisive builds the commit arbiter bounced
	// (a conflicting foreign commit landed after the build's base) and the
	// planner rebuilt against the new head.
	CrossShardRebuilds int

	// Lean-CI counters (DESIGN.md §4j). ObsoleteAborted counts running
	// builds eagerly aborted because a resolution contradicted their
	// assumptions or a finished build already held their result;
	// SpecBranchesSkipped counts speculation branch points collapsed by the
	// predictor-gated skip threshold; SpecBuildsSkipped counts tree nodes
	// dropped because the predictor was confident their result would never
	// be used (P_needed ≤ 1−τ).
	ObsoleteAborted     int
	SpecBranchesSkipped int
	SpecBuildsSkipped   int

	// HotfixPreempted counts running builds aborted past their preemption
	// grace because a P0 hotfix was pending and needed the capacity
	// (DESIGN.md §4l).
	HotfixPreempted int
}

// PrepOps is the total preparation work startBuild performed: analyze calls
// plus per-patch merge units. Divided by BuildsStarted it is the harness
// metric planner.prep_ops_per_build.
func (s Stats) PrepOps() int { return s.SnapshotAnalyses + s.PatchApplies }

// Add accumulates o into s, field by field. The sharded runtime sums its
// engines' counters with it; TestStatsAddAndGaugesCoverEveryField fails when
// a new field is left out.
func (s *Stats) Add(o Stats) {
	s.BuildsStarted += o.BuildsStarted
	s.PrefixHits += o.PrefixHits
	s.PrefixMisses += o.PrefixMisses
	s.PrefixInvalidations += o.PrefixInvalidations
	s.HeadGraphBuilds += o.HeadGraphBuilds
	s.SnapshotAnalyses += o.SnapshotAnalyses
	s.PatchApplies += o.PatchApplies
	s.PlansComputed += o.PlansComputed
	s.PlansSkipped += o.PlansSkipped
	s.KeysComputed += o.KeysComputed
	s.KeysCached += o.KeysCached
	s.FinishedPruned += o.FinishedPruned
	s.CrossShardRebuilds += o.CrossShardRebuilds
	s.ObsoleteAborted += o.ObsoleteAborted
	s.SpecBranchesSkipped += o.SpecBranchesSkipped
	s.SpecBuildsSkipped += o.SpecBuildsSkipped
	s.HotfixPreempted += o.HotfixPreempted
}

// Gauges renders the counters as ordered name/value pairs for the status
// endpoint, the dashboard, and experiment reports.
func (s Stats) Gauges() metrics.Gauges {
	return metrics.Gauges{
		{Name: "builds_started", Value: float64(s.BuildsStarted)},
		{Name: "prefix_hits", Value: float64(s.PrefixHits)},
		{Name: "prefix_misses", Value: float64(s.PrefixMisses)},
		{Name: "prefix_invalidations", Value: float64(s.PrefixInvalidations)},
		{Name: "head_graph_builds", Value: float64(s.HeadGraphBuilds)},
		{Name: "snapshot_analyses", Value: float64(s.SnapshotAnalyses)},
		{Name: "patch_applies", Value: float64(s.PatchApplies)},
		{Name: "plans_computed", Value: float64(s.PlansComputed)},
		{Name: "plans_skipped", Value: float64(s.PlansSkipped)},
		{Name: "keys_computed", Value: float64(s.KeysComputed)},
		{Name: "keys_cached", Value: float64(s.KeysCached)},
		{Name: "finished_pruned", Value: float64(s.FinishedPruned)},
		{Name: "cross_shard_rebuilds", Value: float64(s.CrossShardRebuilds)},
		{Name: "obsolete_aborted", Value: float64(s.ObsoleteAborted)},
		{Name: "spec_branches_skipped", Value: float64(s.SpecBranchesSkipped)},
		{Name: "spec_builds_skipped", Value: float64(s.SpecBuildsSkipped)},
		{Name: "hotfix_preempted", Value: float64(s.HotfixPreempted)},
	}
}
