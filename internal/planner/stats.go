package planner

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
	KeysComputed   int // dynamic keys rebuilt after a resolution
	KeysCached     int // dynamic keys served from the per-build cache
	FinishedPruned int // finished builds garbage-collected

	// CrossShardRebuilds counts finished decisive builds, passed or failed,
	// that the Eq. 6 check found stale (a commit since the build's base
	// that it did not merge touches its footprint) and the planner rebuilt
	// against the new head.
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
