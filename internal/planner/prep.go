package planner

import (
	"fmt"

	"mastergreen/internal/buildgraph"
	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// prepNodeCap bounds the preparation trie. When the trie grows past the cap
// (pathological queue churn producing many disjoint prefixes under one head)
// it is reset to the bare head node rather than evicted piecemeal: plan
// builds share prefixes by construction, so a full reset re-warms in one
// epoch while keeping memory strictly bounded.
const prepNodeCap = 1024

// prepNode is one node of the shared-prefix preparation trie: the merged
// snapshot H ⊕ C1 ⊕ … ⊕ Ci for the change-ID path from the root and its
// target delta against the head graph. Children are keyed by the next applied
// change ID. Nodes are immutable once computed; callers must treat snap/delta
// as read-only.
type prepNode struct {
	snap  repo.Snapshot
	delta buildgraph.Delta
	kids  map[change.ID]*prepNode
}

// prepCache memoizes build preparation for a single head commit. Plan builds
// are prefix-closed (H⊕C1⊕C2⊕C3 extends H⊕C1⊕C2), so an epoch starting B
// builds of average depth k walks mostly-shared paths: each trie miss costs
// exactly one single-patch apply plus one graph analysis, giving O(B)
// incremental merges per epoch instead of O(B·k) full ones. The cache is
// invalidated wholesale when the head moves — every memoized snapshot is
// rooted at the old head and none survive.
//
// The cache is touched only from the Tick goroutine (Tick must not be called
// concurrently with itself), so it needs no lock of its own; the Stats
// counters it bumps are guarded by the planner mutex via count.
type prepCache struct {
	head      repo.CommitID
	headGraph *buildgraph.Graph
	root      *prepNode
	nodes     int
}

// prepared is everything startBuild needs to launch a controller task:
// the merged snapshot, the target delta versus head, and the
// prior-target set already produced by the k−1 prefix build (§6 minimal
// build steps). failure carries a merge/graph error that should reject the
// subject rather than abort the tick.
type prepared struct {
	snap    repo.Snapshot
	delta   buildgraph.Delta
	prior   map[string]bool
	failure string
}

// prepare resolves H ⊕ changes through the trie, computing only the missing
// suffix. A node miss applies one patch to the parent snapshot and analyzes
// the result; a hit costs a map lookup. The head graph is computed once per
// head. The returned error is infrastructural (head graph analysis failed);
// merge/graph failures of the change stack come back in prepared.failure.
func (p *Planner) prepare(head *repo.Commit, ids []change.ID, patches []repo.Patch) (prepared, error) {
	pc := p.prep
	if pc == nil || pc.head != head.ID {
		snap := head.Snapshot()
		hg, err := buildgraph.Analyze(snap)
		if err != nil {
			return prepared{}, fmt.Errorf("planner: head graph: %w", err)
		}
		p.count(func(s *Stats) {
			if pc != nil {
				s.PrefixInvalidations++
			}
			s.HeadGraphBuilds++
			s.SnapshotAnalyses++
		})
		pc = &prepCache{
			head:      head.ID,
			headGraph: hg,
			root:      &prepNode{snap: snap, delta: buildgraph.Delta{}},
			nodes:     1,
		}
		p.prep = pc
	}
	if pc.nodes >= prepNodeCap {
		pc.root.kids = nil
		pc.nodes = 1
		p.count(func(s *Stats) { s.PrefixInvalidations++ })
	}
	cur := pc.root
	parent := pc.root
	for i, id := range ids {
		parent = cur
		if next, ok := cur.kids[id]; ok {
			p.count(func(s *Stats) { s.PrefixHits++ })
			cur = next
			continue
		}
		snap, err := cur.snap.Apply(patches[i])
		p.count(func(s *Stats) { s.PatchApplies++ })
		if err != nil {
			return prepared{failure: fmt.Sprintf("merge failed: applying patch %d: %v", i, err)}, nil
		}
		g, err := buildgraph.Analyze(snap)
		p.count(func(s *Stats) { s.SnapshotAnalyses++; s.PrefixMisses++ })
		if err != nil {
			return prepared{failure: fmt.Sprintf("build graph invalid: %v", err)}, nil
		}
		next := &prepNode{snap: snap, delta: buildgraph.Diff(pc.headGraph, g)}
		if cur.kids == nil {
			cur.kids = map[change.ID]*prepNode{}
		}
		cur.kids[id] = next
		pc.nodes++
		cur = next
	}
	// A target is "prior" when the k−1 prefix build already produced it at
	// the same hash — the parent node's delta is exactly that prefix's delta.
	prior := map[string]bool{}
	for name, h := range parent.delta {
		if cur.delta[name] == h {
			prior[name] = true
		}
	}
	return prepared{snap: cur.snap, delta: cur.delta, prior: prior}, nil
}
