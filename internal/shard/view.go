package shard

import (
	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
)

// engineView is the planner.ConflictSource handed to each shard engine. It
// answers BuildGraph from the coordinator's cached global conflict graph by
// taking the induced subgraph over the engine's own pending set — a walk of
// the members' adjacency (conflict.Graph.Induced), not of their pairs — and
// never touches the analyzer, so concurrent engines cannot thrash its
// incremental memo with disjoint pending subsets.
type engineView struct {
	rt *Runtime
}

// BuildGraph returns the induced subgraph of the coordinator's cached global
// graph over pending, plus the merge failures among them.
//
// Applicability is re-validated live against the current head with the O(patch)
// Snapshot.Check dry run, because the coordinator's cached failure map is only
// refreshed at heavy partitions: a change whose patch stopped applying after a
// later commit must be rejected with the analyzer's exact wording, matching
// the legacy planner decide-for-decide. Cached failures are kept only for
// structural analysis errors, which travel with the change rather than the
// head. A pending change the coordinator has not analyzed yet (a partition is
// in flight) is treated conservatively: it conflicts with every other pending
// change, so the engine serializes around it until the next heavy partition
// refreshes the cache.
func (v *engineView) BuildGraph(pending []*change.Change) (*conflict.Graph, map[change.ID]error) {
	v.rt.gmu.RLock()
	g := v.rt.graph
	failed := v.rt.failed
	v.rt.gmu.RUnlock()
	head := v.rt.repo.Head().Snapshot()

	var failedOut map[change.ID]error
	fail := func(id change.ID, err error) {
		if failedOut == nil {
			failedOut = map[change.ID]error{}
		}
		failedOut[id] = err
	}
	ids := make([]change.ID, 0, len(pending))
	for _, c := range pending {
		if err := head.Check(c.Patch); err != nil {
			fail(c.ID, conflict.ApplyError(c.ID, err))
			continue
		}
		if err, ok := failed[c.ID]; ok && !conflict.IsApplyFailure(err) {
			fail(c.ID, err)
			continue
		}
		ids = append(ids, c.ID)
	}
	return g.Induced(ids), failedOut
}
