package shard

import (
	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/repo"
)

// engineView is the planner.ConflictSource handed to the engine. It answers
// BuildGraph from the coordinator's cached global conflict graph by taking
// the induced subgraph over the pending set the engine asks about — a walk
// of a view restricted to those changes (conflict.Graph.Induced), not a
// copy — and never touches the analyzer, whose graph a head move would
// re-derive: the view re-checks only the patches whose paths moved.
type engineView struct {
	rt *Runtime

	// memo holds the head dry-run verdict of every pending change, stamped
	// with the BuildGraph call (epoch) that last asked so that entries leave
	// with their change. Only the engine's Tick goroutine touches it.
	memo  map[change.ID]*applicability
	epoch uint64
}

// applicability is one Snapshot.Check verdict with everything it depended
// on: the change (a re-submission under the same ID is another *Change) and
// what the head held at each path its patch names — Check reads nothing else.
type applicability struct {
	c     *change.Change
	files []headFile // parallel to c.Patch.Changes
	err   error      // nil, or the conflict.ApplyError rejection
	epoch uint64
}

type headFile struct {
	content string
	exists  bool
}

// applies returns the head dry-run verdict for c, re-running Snapshot.Check
// only when a path of the patch holds something else than when the verdict
// was reached. Unchanged contents share their bytes with the remembered
// ones, so comparing them costs the patch's paths, not their sizes.
func (v *engineView) applies(head repo.Snapshot, c *change.Change) error {
	m := v.memo[c.ID]
	fresh := m == nil || m.c != c
	if fresh {
		m = &applicability{c: c, files: make([]headFile, len(c.Patch.Changes))}
		if v.memo == nil {
			v.memo = map[change.ID]*applicability{}
		}
		v.memo[c.ID] = m
	}
	m.epoch = v.epoch
	for i, fc := range c.Patch.Changes {
		var now headFile
		now.content, now.exists = head.Read(fc.Path)
		if now != m.files[i] {
			m.files[i], fresh = now, true
		}
	}
	if fresh {
		m.err = nil
		if err := head.Check(c.Patch); err != nil {
			m.err = conflict.ApplyError(c.ID, err)
		}
	}
	return m.err
}

// BuildGraph returns the induced subgraph of the coordinator's cached global
// graph over pending, plus the merge failures among them.
//
// Applicability is re-validated live against the current head (applies: the
// O(patch) Snapshot.Check dry run, memoized on the contents it read), because
// the coordinator's cached failure map is only refreshed at heavy partitions:
// a change whose patch stopped applying after a later commit must be rejected
// with the analyzer's exact wording, matching a planner over the analyzer
// itself decide-for-decide. Cached failures are kept only for structural analysis
// errors, which travel with the change rather than the head. The partition
// that moves a change into the engine's queue analyzes it in the same
// critical section, so the engine sees no change the cached graph lacks; if
// one were pending it would be treated conservatively, conflicting with
// every other pending change.
func (v *engineView) BuildGraph(pending []*change.Change) (*conflict.Graph, map[change.ID]error) {
	v.rt.mu.Lock()
	g := v.rt.graph
	failed := v.rt.failed
	v.rt.mu.Unlock()
	head := v.rt.repo.Head().Snapshot()

	var failedOut map[change.ID]error
	fail := func(id change.ID, err error) {
		if failedOut == nil {
			failedOut = map[change.ID]error{}
		}
		failedOut[id] = err
	}
	ids := make([]change.ID, 0, len(pending))
	v.epoch++
	for _, c := range pending {
		if err := v.applies(head, c); err != nil {
			fail(c.ID, err)
			continue
		}
		if err, ok := failed[c.ID]; ok && !conflict.IsApplyFailure(err) {
			fail(c.ID, err)
			continue
		}
		ids = append(ids, c.ID)
	}
	if len(v.memo) > len(pending) { // some change left: drop what was not asked about
		for id, m := range v.memo {
			if m.epoch != v.epoch {
				delete(v.memo, id)
			}
		}
	}
	return g.Induced(ids), failedOut
}
