package conflict

import (
	"sync"

	"mastergreen/internal/change"
)

// graphMemo is the analyzer's long-lived conflict graph, the analysis each
// vertex's edges were last derived from, and an inverted index over the
// content-only members. A vertex is clean — its edges carry over without a
// rescan — iff it is a member under an unchanged analysis identity.
type graphMemo struct {
	graph   *Graph
	members map[change.ID]*Analysis
	// byTarget maps a target name to the members that did not change
	// build-graph structure and whose delta contains it. Two such members
	// conflict iff they share a target (§5.2), so a vertex's bucket mates
	// are exactly its content-only neighbours.
	byTarget map[string]map[change.ID]struct{}
}

// add makes an the analysis its vertex's edges are derived from and, unless
// it changed structure, indexes its delta.
func (m *graphMemo) add(an *Analysis) {
	id := an.Change.ID
	m.members[id] = an
	if an.StructureChanged {
		return
	}
	for t := range an.Delta {
		if m.byTarget[t] == nil {
			m.byTarget[t] = map[change.ID]struct{}{}
		}
		m.byTarget[t][id] = struct{}{}
	}
}

// drop undoes add for a vertex that leaves or is about to be rescanned.
func (m *graphMemo) drop(id change.ID) {
	an := m.members[id]
	delete(m.members, id)
	if an == nil || an.StructureChanged {
		return
	}
	for t := range an.Delta {
		if delete(m.byTarget[t], id); len(m.byTarget[t]) == 0 {
			delete(m.byTarget, t)
		}
	}
}

// BuildGraph analyzes every pending change and returns the conflict graph
// over them. Changes whose patch no longer applies to HEAD are reported in
// failed with their error and excluded from the graph.
//
// Changes with a current-head analysis are resolved in one pass under the
// lock; only the misses fan out in parallel on the bounded worker pool. The
// returned graph is maintained incrementally across calls: vertices for
// changes no longer pending are removed, new ones added, and only vertices
// whose analyses changed since the previous epoch have their edges
// re-derived; everything else carries over. If HEAD moves while the fan-out
// is in flight, the whole pass retries once against the new head; vertices
// still stale after the retry get conservative conflict edges so the planner
// re-plans next epoch rather than miscommitting.
func (a *Analyzer) BuildGraph(pending []*change.Change) (*Graph, map[change.ID]error) {
	type slot struct {
		an  *Analysis
		err error
	}
	slots := make([]slot, len(pending))
	analyze := func() {
		var misses []int
		a.mu.Lock()
		fresh := a.refreshHeadLocked() == nil
		for i, c := range pending {
			if an, hit := a.analyses[c.ID]; hit && fresh {
				a.stats.CacheHits++
				slots[i] = slot{an: an}
			} else {
				misses = append(misses, i)
			}
		}
		a.mu.Unlock()
		var wg sync.WaitGroup
		for _, i := range misses {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				an, err := a.Analyze(pending[i])
				slots[i] = slot{an: an, err: err}
			}(i)
		}
		wg.Wait()
	}

	for attempt := 0; ; attempt++ {
		analyze()

		a.mu.Lock()
		if err := a.refreshHeadLocked(); err != nil {
			// The head snapshot itself fails build-graph analysis; nothing
			// can be decided this epoch.
			a.mu.Unlock()
			failed := make(map[change.ID]error, len(pending))
			for _, c := range pending {
				failed[c.ID] = err
			}
			return NewGraph(nil), failed
		}
		stale := false
		for i, c := range pending {
			if slots[i].err != nil {
				continue
			}
			// Prefer the cached analysis: a head move since the fan-out
			// re-homed its survivors in place.
			if cur, ok := a.analyses[c.ID]; ok {
				slots[i].an = cur
			}
			if slots[i].an.Head != a.head {
				stale = true
			}
		}
		if stale && attempt < 1 {
			a.stats.HeadMoveRetries++
			a.mu.Unlock()
			continue
		}

		failed := map[change.ID]error{}
		ok := make([]*Analysis, 0, len(pending))
		for i, c := range pending {
			if slots[i].err != nil {
				failed[c.ID] = slots[i].err
				continue
			}
			ok = append(ok, slots[i].an)
		}
		g := a.updateGraphLocked(ok)
		a.mu.Unlock()
		return g, failed
	}
}

// updateGraphLocked reconciles the memoized conflict graph with the current
// set of successfully analyzed pending changes (in submission order) and
// returns a clone. Callers hold a.mu.
func (a *Analyzer) updateGraphLocked(ok []*Analysis) *Graph {
	if a.memo == nil {
		a.memo = &graphMemo{
			graph:    NewGraph(nil),
			members:  map[change.ID]*Analysis{},
			byTarget: map[string]map[change.ID]struct{}{},
		}
		a.stats.GraphRebuilds++
	} else {
		a.stats.GraphUpdates++
	}
	m := a.memo

	// Drop vertices for changes no longer pending (committed, rejected, or
	// failed this epoch). Their analyses cannot be queried again at this
	// head through BuildGraph, so the per-change cache is pruned too, and
	// with it their memoized union verdicts.
	current := make(map[change.ID]bool, len(ok))
	for _, an := range ok {
		current[an.Change.ID] = true
	}
	var gone []change.ID
	for _, id := range m.graph.order {
		if current[id] {
			continue
		}
		gone = append(gone, id)
		m.drop(id)
		delete(a.analyses, id)
	}
	m.graph.Remove(gone...)

	// Add vertices in submission order and mark dirty ones: new vertices,
	// vertices whose analysis was recomputed (identity changed), and — after
	// an exhausted head-move retry — vertices whose analysis is still stale.
	// A dirty vertex drops its edges wholesale and swaps its index entries;
	// a stale one stays out of the memo, which forces its rescan next epoch.
	dirty := make([]bool, len(ok))
	var structural []int // current-head members that changed structure
	clean := 0
	for i, an := range ok {
		id, atHead := an.Change.ID, an.Head == a.head
		m.graph.AddChange(id)
		if old := m.members[id]; atHead && old != nil && old.id == an.id {
			clean++
		} else {
			dirty[i] = true
			m.drop(id)
			m.graph.Isolate(id)
			if atHead {
				m.add(an)
			}
		}
		if atHead && an.StructureChanged {
			structural = append(structural, i)
		}
	}
	a.stats.PairsReused += clean * (clean - 1) / 2

	// Re-derive the edges of every dirty vertex, now that the index holds
	// exactly the current-head content-only members. settle decides one pair
	// by comparison; two dirty vertices are settled once, from the earlier.
	settle := func(i, j int) {
		if j == i || ok[j].Head != a.head || (dirty[j] && j < i) {
			return
		}
		a.stats.PairsRescanned++
		if a.pairVerdictLocked(ok[i], ok[j]) {
			m.graph.AddEdge(ok[i].Change.ID, ok[j].Change.ID)
		}
	}
	for i, an := range ok {
		if !dirty[i] {
			continue
		}
		id := an.Change.ID
		switch {
		case an.Head != a.head:
			// Head kept moving through the retry: assume conflict with every
			// other vertex so the planner re-plans next epoch rather than
			// miscommitting.
			for _, o := range ok {
				if o != an && !m.graph.Conflict(id, o.Change.ID) {
					a.stats.ConservativeEdges++
					m.graph.AddEdge(id, o.Change.ID)
				}
			}
		case an.StructureChanged:
			for j := range ok {
				settle(i, j)
			}
		default:
			// Content-only: bucket mates are neighbours by construction (an
			// edge already there was found from its other end or through
			// another target); members that changed structure are compared.
			for t := range an.Delta {
				for o := range m.byTarget[t] {
					if o != id && !m.graph.Conflict(id, o) {
						a.stats.PairsRescanned++
						a.stats.CheapComparisons++
						m.graph.AddEdge(id, o)
					}
				}
			}
			for _, j := range structural {
				settle(i, j)
			}
		}
	}
	return m.graph.Clone()
}
