package arbiter

import (
	"fmt"
	"sort"

	"mastergreen/internal/metrics"
)

// Stats counts arbiter work so the cross-shard re-validation layer is
// observable: how often proposals raced foreign commits, how often the race
// was a real conflict, and how deep the proposal queue got.
type Stats struct {
	// Commits is the number of head advancements applied.
	Commits int
	// CommitFailures counts proposals whose patch no longer applied at the
	// current head (rejected by the proposing engine, mainline untouched).
	CommitFailures int
	// CrossShardChecks counts foreign interleaved commits re-validated.
	CrossShardChecks int
	// CrossShardRejects counts proposals bounced back for rebuild.
	CrossShardRejects int
	// MaxQueueDepth is the high-water mark of concurrent proposals.
	MaxQueueDepth int
	// HotfixYields counts lower-lane proposals that stepped aside at the
	// admission gate while a hotfix-lane proposal was waiting (§4l).
	HotfixYields int
	// CommitsByShard attributes commits to the proposing planner shard.
	CommitsByShard map[int]int
}

// Stats returns a copy of the arbiter's counters.
func (a *Arbiter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stats
	s.CommitsByShard = make(map[int]int, len(a.stats.CommitsByShard))
	for k, v := range a.stats.CommitsByShard {
		s.CommitsByShard[k] = v
	}
	return s
}

// CrossShardRejects returns the number of proposals bounced so far. The shard
// coordinator polls it every partition epoch, so unlike Stats it copies
// nothing.
func (a *Arbiter) CrossShardRejects() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats.CrossShardRejects
}

// Gauges renders the counters as ordered name/value pairs for the status
// endpoint, the dashboard, and experiment reports.
func (s Stats) Gauges() metrics.Gauges {
	g := metrics.Gauges{
		{Name: "commits", Value: float64(s.Commits)},
		{Name: "commit_failures", Value: float64(s.CommitFailures)},
		{Name: "cross_shard_checks", Value: float64(s.CrossShardChecks)},
		{Name: "cross_shard_rejects", Value: float64(s.CrossShardRejects)},
		{Name: "max_queue_depth", Value: float64(s.MaxQueueDepth)},
		{Name: "hotfix_yields", Value: float64(s.HotfixYields)},
	}
	shards := make([]int, 0, len(s.CommitsByShard))
	for sh := range s.CommitsByShard {
		shards = append(shards, sh)
	}
	sort.Ints(shards)
	for _, sh := range shards {
		g = append(g, metrics.Gauge{
			Name:  fmt.Sprintf("commits_shard_%d", sh),
			Value: float64(s.CommitsByShard[sh]),
		})
	}
	return g
}
