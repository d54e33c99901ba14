package shard

import (
	"mastergreen/internal/metrics"
	"mastergreen/internal/planner"
)

// Stats counts coordinator work so the partition layer is observable: how
// often the cheap light path sufficed, how big the component partition is,
// and how much churn rebalancing caused.
type Stats struct {
	// ShardsActive is the number of engines with a non-empty sub-queue at the
	// last partition epoch.
	ShardsActive int
	// Components is the connected-component count at the last heavy partition
	// (merge-failed changes count as singletons).
	Components int
	// Members is the number of adopted, undecided changes.
	Members int
	// Partitions counts coordinator epochs; HeavyPartitions counts the subset
	// that recomputed the global conflict graph and the shard assignment.
	Partitions      int
	HeavyPartitions int
	// Rebalanced counts changes moved from one engine to another.
	Rebalanced int
}

// Stats returns a copy of the coordinator's counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s := rt.stats
	s.Members = len(rt.members)
	return s
}

// PlannerStats sums the per-engine planner counters, so the service surfaces
// one set of planner gauges whatever the engine count.
func (rt *Runtime) PlannerStats() planner.Stats {
	var sum planner.Stats
	for _, e := range rt.engines {
		sum = metrics.Sum(sum, e.planner.Stats())
	}
	return sum
}
