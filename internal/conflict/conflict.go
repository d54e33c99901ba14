// Package conflict implements the paper's scalable conflict analyzer (§5):
// it computes the set of build targets affected by each pending change
// (δ_{H⊕C}), decides pairwise whether two changes conflict, and assembles the
// conflict graph the speculation engine uses to (1) trim the speculation
// space and (2) find independent changes that can commit in parallel.
//
// Detection strategy, per §5.2: if neither change alters the build-graph
// structure (the common case — the paper measured 1.6–7.9%), a cheap
// name-intersection of deltas suffices; otherwise the union-graph algorithm
// runs on the three graphs G_H, G_{H⊕Ci}, G_{H⊕Cj}, avoiding the n² graph
// builds that Equation 6 would require.
//
// The analyzer's steady state is an incremental, parallel pipeline
// (DESIGN.md §4e):
//
//   - Selective invalidation: when HEAD advances without a build-graph
//     structure change, cached content-only analyses whose patches touch none
//     of the moved files are re-homed to the new head instead of recomputed,
//     so a commit re-analyses the changes whose files it moved, not N.
//   - Parallel fan-out: per-change analyses run single-flight on a bounded
//     worker pool; the analyzer mutex only guards cache bookkeeping, never a
//     merge or graph build.
//   - Target index + incremental conflict graph: BuildGraph updates one
//     long-lived graph epoch to epoch. A vertex whose analysis changed drops
//     its edges and re-derives them from an inverted index target → pending
//     changes whose delta contains it, so an update walks edges, not pairs.
//     Only structure-changing changes are compared against every other
//     member, and only those union-graph verdicts are memoized.
package conflict

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"mastergreen/internal/buildgraph"
	"mastergreen/internal/change"
	"mastergreen/internal/events"
	"mastergreen/internal/metrics"
	"mastergreen/internal/repo"
)

// errHeadMoved is returned by Conflicts when HEAD advanced between the two
// analyses; BuildGraph retries the pass once before assuming conflict.
var errHeadMoved = errors.New("conflict: head moved during analysis")

// ApplyError is the canonical rejection error for a change whose patch no
// longer applies to the current head. The analyzer produces it from a failed
// merge, and the sharded planner's engine view reproduces it from a live
// applicability check so both paths reject with identical wording.
func ApplyError(id change.ID, err error) error {
	return fmt.Errorf("conflict: change %s does not apply to head: %w", id, err)
}

// IsApplyFailure reports whether an analysis error was a patch-applicability
// failure (merge conflict with committed work) as opposed to a structural
// analysis failure such as a malformed BUILD file. Applicability is a
// function of the current head, so cached apply failures go stale the moment
// the head moves; structural failures travel with the change itself.
func IsApplyFailure(err error) bool {
	return errors.Is(err, repo.ErrFileExists) ||
		errors.Is(err, repo.ErrNoSuchFile) ||
		errors.Is(err, repo.ErrMergeConflict)
}

// Analysis is everything the analyzer derives from a single change at a
// given head.
type Analysis struct {
	// id is the analysis identity: a fresh value per computed analysis,
	// preserved when the analysis is re-homed across a head move. The graph
	// memo keeps a vertex's edges, and the union memo a verdict, exactly as
	// long as the identities they were derived from stay current.
	id uint64

	Change *change.Change
	Head   repo.CommitID
	// Delta is δ_{H⊕C}: affected targets and their post-change hashes. Its
	// names are exact at Head; after re-homing, the hash value of a target
	// that also depends on a file the head movement changed lags behind
	// (invalidateLocked). The analyzer reads names only — the name
	// intersection, the graph memo's target index, UnionConflictDeltas — and
	// StructureChanged beside them.
	Delta buildgraph.Delta
	// StructureChanged reports whether the change alters the target graph
	// (adds/removes targets or edges). Only such changes need the union-graph
	// conflict algorithm.
	StructureChanged bool
	// Graph is the build graph of H⊕C as analyzed when the analysis was
	// computed. After re-homing, its hashes may lag the current head, but its
	// structure (targets and edges) is current — the only property the union
	// comparison consults.
	Graph *buildgraph.Graph
	// paths is the set of files the change's patch touches, consulted by the
	// selective-invalidation rule (a head movement touching none of them
	// changes neither the patch's applicability nor, with the structure
	// fixed, the names in Delta).
	paths map[string]bool
	// union memoizes this analysis's union-graph verdicts by the other
	// analysis's identity (see pairVerdictLocked). Guarded by Analyzer.mu.
	union map[uint64]bool
}

// Stats counts analyzer work: the "n graphs instead of n²" claim and the
// incremental pipeline, as read by tests, dashboards and the bench/ harness.
type Stats struct {
	GraphBuilds        int // full build-graph analyses performed
	CheapComparisons   int // name-intersection conflict tests (a pair found through the target index counts once)
	UnionComparisons   int // union-graph conflict tests
	CacheHits          int
	StructureChanged   int // analyses whose change altered graph structure
	AnalyzedChanges    int
	PatchApplyFailures int

	// Incremental-pipeline counters (DESIGN.md §4e).
	ReusedAnalyses         int // analyses re-homed across a head move without recomputation
	SelectiveInvalidations int // analyses dropped by the invalidation rule
	PairCacheHits          int // union-graph verdicts served from the memo
	PairsReused            int // vertex pairs carried between epochs without any rescan
	PairsRescanned         int // pairs re-verdicted during a graph update: index candidates and union comparisons
	HeadMoveRetries        int // BuildGraph passes re-run because HEAD moved mid-analysis
	ConservativeEdges      int // edges assumed conflicting because HEAD kept moving
	GraphUpdates           int // incremental conflict-graph updates
	GraphRebuilds          int // conflict graphs built from scratch
}

// Gauges renders the counters as ordered name/value pairs for dashboards and
// experiment reports (cache effectiveness at a glance).
func (s Stats) Gauges() metrics.Gauges {
	return metrics.Gauges{
		{Name: "graph_builds", Value: float64(s.GraphBuilds)},
		{Name: "analyzed_changes", Value: float64(s.AnalyzedChanges)},
		{Name: "cache_hits", Value: float64(s.CacheHits)},
		{Name: "reused_analyses", Value: float64(s.ReusedAnalyses)},
		{Name: "selective_invalidations", Value: float64(s.SelectiveInvalidations)},
		{Name: "cheap_comparisons", Value: float64(s.CheapComparisons)},
		{Name: "union_comparisons", Value: float64(s.UnionComparisons)},
		{Name: "pair_cache_hits", Value: float64(s.PairCacheHits)},
		{Name: "pairs_reused", Value: float64(s.PairsReused)},
		{Name: "pairs_rescanned", Value: float64(s.PairsRescanned)},
		{Name: "head_move_retries", Value: float64(s.HeadMoveRetries)},
		{Name: "conservative_edges", Value: float64(s.ConservativeEdges)},
		{Name: "graph_updates", Value: float64(s.GraphUpdates)},
		{Name: "graph_rebuilds", Value: float64(s.GraphRebuilds)},
		{Name: "structure_changed", Value: float64(s.StructureChanged)},
		{Name: "patch_apply_failures", Value: float64(s.PatchApplyFailures)},
	}
}

// inflight is a single-flight slot: the claimant computes the analysis and
// publishes it before closing done; waiters re-check the cache afterwards.
type inflight struct {
	done chan struct{}
	an   *Analysis // set before done closes; may be for an older head
	err  error
}

// Analyzer caches per-head build graphs, per-change analyses (each with its
// union-graph verdicts), and an incrementally maintained conflict graph. All
// methods are safe for concurrent use.
type Analyzer struct {
	repo *repo.Repo

	sem chan struct{} // bounds concurrently executing per-change analyses

	mu        sync.Mutex
	head      repo.CommitID
	headSnap  repo.Snapshot
	headGraph *buildgraph.Graph
	analyses  map[change.ID]*Analysis
	inflight  map[change.ID]*inflight
	nextID    uint64 // next analysis identity; starts at 1 (0 = "no identity")
	memo      *graphMemo
	stats     Stats
	bus       *events.Bus
}

// New creates an Analyzer over the repository. The analysis worker pool is
// sized to the machine; worker count never affects results, only latency.
func New(r *repo.Repo) *Analyzer {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	return &Analyzer{
		repo:     r,
		sem:      make(chan struct{}, workers),
		analyses: map[change.ID]*Analysis{},
		inflight: map[change.ID]*inflight{},
		nextID:   1,
	}
}

// SetEvents attaches an event bus for analyzer lifecycle events (analysis
// start/reuse/invalidate). Call before first use.
func (a *Analyzer) SetEvents(b *events.Bus) { a.bus = b }

// publish emits a lifecycle event. Safe to call with or without a.mu held:
// Bus.Publish's subscriber sends are non-blocking and its mutex is a leaf.
func (a *Analyzer) publish(typ events.Type, id change.ID, detail string) {
	if a.bus == nil {
		return
	}
	a.bus.Publish(events.Event{Type: typ, Change: id, Detail: detail})
}

// Stats returns a snapshot of the analyzer's work counters.
func (a *Analyzer) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

func (a *Analyzer) count(f func(*Stats)) {
	a.mu.Lock()
	f(&a.stats)
	a.mu.Unlock()
}

// refreshHeadLocked ensures the cached head graph matches the repo's current
// HEAD. When the mainline advanced, per-change analyses are selectively
// invalidated (see invalidateLocked). Callers hold a.mu.
func (a *Analyzer) refreshHeadLocked() error {
	head := a.repo.Head()
	if a.headGraph != nil && a.head == head.ID {
		return nil
	}
	snap := head.Snapshot()
	g, err := buildgraph.Analyze(snap)
	if err != nil {
		return fmt.Errorf("conflict: analyzing head %s: %w", head.ID, err)
	}
	a.stats.GraphBuilds++
	if a.headGraph != nil {
		a.invalidateLocked(head.ID, snap, g)
	}
	a.head = head.ID
	a.headSnap = snap
	a.headGraph = g
	return nil
}

// Analyze computes (and caches) the Analysis for a change against the
// current HEAD. It fails if the patch does not apply cleanly to HEAD — a
// merge conflict with already-committed work, which SubmitQueue surfaces as
// an immediate rejection reason.
//
// Concurrent calls for the same change coalesce onto one computation
// (single-flight); concurrent calls for different changes proceed in
// parallel on a bounded pool. If HEAD moves while an analysis is in flight,
// the returned Analysis carries the head it was computed at; Conflicts and
// BuildGraph detect the mismatch and retry.
func (a *Analyzer) Analyze(c *change.Change) (*Analysis, error) {
	for {
		a.mu.Lock()
		if err := a.refreshHeadLocked(); err != nil {
			a.mu.Unlock()
			return nil, err
		}
		if an, ok := a.analyses[c.ID]; ok {
			a.stats.CacheHits++
			a.mu.Unlock()
			return an, nil
		}
		if fl, ok := a.inflight[c.ID]; ok {
			a.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, fl.err
			}
			// The in-flight analysis may have landed at an older head; loop
			// to pick it from the cache (or re-claim) at the current one.
			continue
		}
		fl := &inflight{done: make(chan struct{})}
		a.inflight[c.ID] = fl
		head, headGraph := a.head, a.headGraph
		a.mu.Unlock()

		a.publish(events.TypeAnalysisStarted, c.ID, "at head "+string(head))
		an, err := a.analyzeAt(c, head, headGraph)

		a.mu.Lock()
		delete(a.inflight, c.ID)
		if err == nil {
			an.id = a.nextID
			a.nextID++
			if a.head == head {
				a.analyses[c.ID] = an
			}
		}
		fl.an, fl.err = an, err
		a.mu.Unlock()
		close(fl.done)
		return an, err
	}
}

// analyzeAt performs the expensive part of an analysis — merge, build-graph
// analysis, delta — without holding a.mu, bounded by the worker pool.
func (a *Analyzer) analyzeAt(c *change.Change, head repo.CommitID, headGraph *buildgraph.Graph) (*Analysis, error) {
	a.sem <- struct{}{}
	defer func() { <-a.sem }()
	snap, err := a.repo.Merged(head, c.Patch)
	if err != nil {
		a.count(func(s *Stats) { s.PatchApplyFailures++ })
		return nil, ApplyError(c.ID, err)
	}
	g, err := buildgraph.Analyze(snap)
	if err != nil {
		return nil, fmt.Errorf("conflict: analyzing %s: %w", c.ID, err)
	}
	structureChanged := !buildgraph.SameStructure(headGraph, g)
	a.count(func(s *Stats) {
		s.GraphBuilds++
		s.AnalyzedChanges++
		if structureChanged {
			s.StructureChanged++
		}
	})
	paths := map[string]bool{}
	for _, p := range c.Patch.Paths() {
		paths[p] = true
	}
	return &Analysis{
		Change:           c,
		Head:             head,
		Delta:            buildgraph.Diff(headGraph, g),
		StructureChanged: structureChanged,
		Graph:            g,
		paths:            paths,
	}, nil
}

// StructureChanged reports whether the cached analysis for the change (at
// the head it was computed or re-homed to) altered build-graph structure.
// known is false when no analysis is cached — selective invalidation dropped
// it, or it was never computed — and callers needing a safe answer should
// then assume the structure did change. The commit arbiter consults this
// during cross-shard re-validation without forcing a recomputation.
func (a *Analyzer) StructureChanged(id change.ID) (changed, known bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	an, ok := a.analyses[id]
	if !ok {
		return false, false
	}
	return an.StructureChanged, true
}

// Conflicts reports whether two changes conflict at the current HEAD.
func (a *Analyzer) Conflicts(ci, cj *change.Change) (bool, error) {
	ai, err := a.Analyze(ci)
	if err != nil {
		return false, err
	}
	aj, err := a.Analyze(cj)
	if err != nil {
		return false, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Prefer the cached (possibly re-homed) analyses: a head move between
	// the two Analyze calls re-homes survivors in place.
	if cur, ok := a.analyses[ci.ID]; ok {
		ai = cur
	}
	if cur, ok := a.analyses[cj.ID]; ok {
		aj = cur
	}
	if ai.Head != a.head || aj.Head != a.head {
		// Head moved between the two analyses; caller should retry.
		return false, errHeadMoved
	}
	return a.pairVerdictLocked(ai, aj), nil
}

// pairVerdictLocked decides whether two same-head analyses conflict. A name
// intersection is cheaper than a map insert and is never memoized. A
// union-graph verdict — the one comparison that costs O(graph) — is kept in
// the row of a member that changed structure (the older one, if both did):
// no head move re-homes such an analysis, so the row is dropped with it and
// nothing ever has to be swept. Callers hold a.mu and have verified both
// heads match a.head.
func (a *Analyzer) pairVerdictLocked(ai, aj *Analysis) bool {
	if !ai.StructureChanged && !aj.StructureChanged {
		a.stats.CheapComparisons++
		return buildgraph.NameIntersectionConflict(ai.Delta, aj.Delta)
	}
	if !ai.StructureChanged || (aj.StructureChanged && aj.id < ai.id) {
		ai, aj = aj, ai
	}
	if v, ok := ai.union[aj.id]; ok {
		a.stats.PairCacheHits++
		return v
	}
	a.stats.UnionComparisons++
	conf := buildgraph.UnionConflictDeltas(ai.Delta, aj.Delta, a.headGraph, ai.Graph, aj.Graph)
	if ai.union == nil {
		ai.union = map[uint64]bool{}
	}
	ai.union[aj.id] = conf
	return conf
}
