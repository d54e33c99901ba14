package conflict

import (
	"fmt"
	"sort"

	"mastergreen/internal/buildgraph"
	"mastergreen/internal/change"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
)

// invalidateLocked reconciles the per-change analysis cache with a head
// movement (a.head/a.headSnap/a.headGraph → head/snap/g). A cached analysis
// survives — re-homed to the new head without recomputation — iff
//
//  1. neither the head movement nor the analysis changed build-graph
//     structure (same targets, same edges), and
//  2. the analysis's delta is target-disjoint from the head movement's delta
//     (δ_{H⊕C} ∩ δ_{H⊕D} = ∅ for the landed movement D), and
//  3. the change's patch touches none of the files the movement changed.
//
// (1)+(2) guarantee δ_{H'⊕C} = δ_{H⊕C} exactly — names and hashes: with the
// structure fixed, a target outside both deltas hashes identically at H and
// H'; a target of δ_{H⊕C} with a dependency in δ_{H⊕D} would itself appear
// in δ_{H⊕D} (Algorithm 1 hashes are recursive), contradicting disjointness.
// (3) guarantees the patch still applies, since base-hash checks only read
// the files the patch touches. The survivor's stored Graph keeps stale
// hashes outside its delta, but its structure equals the new head graph's —
// the only property the union comparison consults (UnionConflictDeltas).
//
// A survivor keeps its identity, so the graph memo carries its edges over
// untouched; a dropped analysis takes its union verdicts with it. Each drop
// is published; the survivors of one head move — every other pending change,
// at depth — are published as one summary. Callers hold a.mu.
func (a *Analyzer) invalidateLocked(head repo.CommitID, snap repo.Snapshot, g *buildgraph.Graph) {
	headDelta := buildgraph.Diff(a.headGraph, g)
	sameStructure := buildgraph.SameStructure(a.headGraph, g)
	changed := a.headSnap.ChangedPaths(snap)

	ids := make([]change.ID, 0, len(a.analyses))
	for id := range a.analyses {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	reused := 0
	for _, id := range ids {
		an := a.analyses[id]
		keep := sameStructure &&
			!an.StructureChanged &&
			an.Delta.Disjoint(headDelta) &&
			!touchesAny(an.paths, changed)
		if keep {
			rehomed := *an
			rehomed.Head = head
			a.analyses[id] = &rehomed
			reused++
		} else {
			delete(a.analyses, id)
			a.stats.SelectiveInvalidations++
			a.publish(events.TypeAnalysisInvalidated, id, "intersects head movement to "+string(head))
		}
	}
	if reused > 0 {
		a.stats.ReusedAnalyses += reused
		a.publish(events.TypeAnalysisReused, "", fmt.Sprintf("%d analyses re-homed to head %s", reused, head))
	}
}

// touchesAny reports whether any of paths (sorted) is in the set.
func touchesAny(set map[string]bool, paths []string) bool {
	for _, p := range paths {
		if set[p] {
			return true
		}
	}
	return false
}
