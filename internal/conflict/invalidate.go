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
// of C survives — re-homed to the new head without recomputation — iff
//
//  1. neither the head movement nor the analysis changed build-graph
//     structure (same targets, same srcs, same deps), and
//  2. C's patch touches none of the files the movement changed.
//
// Soundness. With the structure fixed, a target's Algorithm 1 hash is a
// function of the contents of its transitive sources, so t is in δ_{H⊕C} iff
// t's transitive sources include a file that C's patch changes. By (2) every
// file the patch touches reads the same at H and H′ (and so does its patched
// result), so the patch changes the same files at H′ as at H, and δ_{H′⊕C}
// has exactly the names of δ_{H⊕C}; the same per-file argument keeps C's
// structure equal to the head's. Only the hash values of targets that also
// depend on moved files lag behind. The analyzer reads names only (see
// Analysis.Delta), so a lagging value is never consulted. (2) also keeps the
// patch applicable, since base-hash checks read only the files it touches.
// The survivor's stored Graph keeps stale hashes too, but its structure
// equals the new head graph's — the only property the union comparison
// consults (UnionConflictDeltas).
//
// A survivor keeps its identity, so the graph memo carries its edges over
// untouched; a dropped analysis takes its union verdicts with it. Each drop
// is published in ID order; the survivors of one head move — every other
// pending change, at depth — are published as one summary. Callers hold a.mu.
func (a *Analyzer) invalidateLocked(head repo.CommitID, snap repo.Snapshot, g *buildgraph.Graph) {
	sameStructure := buildgraph.SameStructure(a.headGraph, g)
	changed := a.headSnap.ChangedPaths(snap)

	var dropped []change.ID
	reused := 0
	for id, an := range a.analyses {
		if sameStructure && !an.StructureChanged && !touchesAny(an.paths, changed) {
			rehomed := *an
			rehomed.Head = head
			a.analyses[id] = &rehomed
			reused++
			continue
		}
		delete(a.analyses, id)
		dropped = append(dropped, id)
	}
	sort.Slice(dropped, func(i, j int) bool { return dropped[i] < dropped[j] })
	for _, id := range dropped {
		a.stats.SelectiveInvalidations++
		a.publish(events.TypeAnalysisInvalidated, id, "intersects head movement to "+string(head))
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
