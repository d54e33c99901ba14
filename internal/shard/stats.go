package shard

import "mastergreen/internal/planner"

// Stats counts coordinator work so the partition layer is observable: how
// often the cheap light path sufficed and how many changes the engine holds.
type Stats struct {
	// Members is the number of adopted, undecided changes.
	Members int
	// Partitions counts coordinator epochs; HeavyPartitions counts the subset
	// that recomputed the global conflict graph.
	Partitions      int
	HeavyPartitions int
	// Rebalanced is always 0: one engine moves no change. It stays only
	// because bench/layers.go reads it; ROADMAP item 1 deletes it.
	Rebalanced int
}

// Stats returns a copy of the coordinator's counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	s := rt.stats
	rt.mu.Unlock()
	s.Members = rt.queue.Len()
	return s
}

// PlannerStats returns the engine's planner counters.
func (rt *Runtime) PlannerStats() planner.Stats { return rt.planner.Stats() }
