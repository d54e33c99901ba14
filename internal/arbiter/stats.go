package arbiter

// Stats counts arbiter work so the Eq. 6 re-validation layer is observable:
// how often decisive results raced commits their builds did not merge, how
// often the race was a real conflict, and how deep the proposal queue got.
type Stats struct {
	// Commits is the number of head advancements applied.
	Commits int
	// CommitFailures counts proposals whose patch no longer applied at the
	// current head (rejected by the engine, mainline untouched).
	CommitFailures int
	// CrossShardChecks counts interleaved commits re-validated (Commit and
	// Check).
	CrossShardChecks int
	// CrossShardRejects counts results bounced back for rebuild.
	CrossShardRejects int
	// MaxQueueDepth is the high-water mark of concurrent proposals: 1 with
	// one engine. It stays only because bench/layers.go reads it; ROADMAP
	// item 1 deletes it.
	MaxQueueDepth int
}

// Stats returns a copy of the arbiter's counters.
func (a *Arbiter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}
