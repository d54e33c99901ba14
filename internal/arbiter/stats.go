package arbiter

// Stats counts arbiter work so the Eq. 6 re-validation layer is observable:
// how often decisive results raced commits their builds did not merge, how
// often the race was a real conflict, and how deep the proposal queue got.
type Stats struct {
	// Commits is the number of head advancements applied.
	Commits int
	// CommitFailures counts proposals whose patch no longer applied at the
	// current head (rejected by the proposing engine, mainline untouched).
	CommitFailures int
	// CrossShardChecks counts interleaved commits re-validated (Commit and
	// Check), from any engine.
	CrossShardChecks int
	// CrossShardRejects counts results bounced back for rebuild.
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
