package core

import (
	"fmt"

	"mastergreen/internal/change"
	"mastergreen/internal/planner"
	"mastergreen/internal/repo"
	"mastergreen/internal/store"
)

// keepOutcomes is how many rejections a journal fold keeps, so a restarted
// service still answers for recent ones (commit records are all kept).
const keepOutcomes = 1000

// CloseJournal flushes and detaches the journal (call after Stop;
// api.Stack.Close snapshots the journal first).
func (s *Service) CloseJournal() error {
	j := s.journal.Swap(nil)
	if j == nil {
		return nil
	}
	s.arb.SetJournal(nil)
	return j.Close()
}

// SnapshotJournal folds the journal into a snapshot (every commit record,
// the pending set and the newest keepOutcomes rejections) and truncates the
// live journal. No-op without a journal.
func (s *Service) SnapshotJournal() error {
	j := s.journal.Load()
	if j == nil {
		return nil
	}
	return j.Snapshot(s.repo.Head().ID, keepOutcomes, s.cfg.Clock.Now())
}

// OpenRecovered builds a durable service from the seed repository and a
// journal path (the role MySQL plays in §7.1). The journal's commit records
// are replayed onto seed in seq order, each checked against the commit ID
// and content it recorded (a journal of another seed is a boot error); the
// decision log is rebuilt from the commit records in seq order and then the
// rejection records in journal order (its seqs are this process's, not the
// ones a client saw before the restart), every change still pending is
// re-enqueued against the recovered head, and the journal is attached.
func OpenRecovered(seed *repo.Repo, journalPath string, cfg Config) (*Service, error) {
	recs, err := store.LoadState(journalPath)
	if err != nil {
		return nil, err
	}
	commits, err := store.Mainline(recs)
	if err != nil {
		return nil, err
	}
	if len(commits) > 0 && commits[0].Seq != seed.Len() {
		return nil, fmt.Errorf("core: the journal's mainline starts at seq %d, the seed has %d commits", commits[0].Seq, seed.Len())
	}
	for _, c := range commits {
		got, err := seed.CommitPatch(seed.Head().ID, repo.Patch{Changes: c.Patch}, c.Author, c.Message, c.At)
		if err != nil {
			return nil, fmt.Errorf("core: replaying commit %d of %s: %w", c.Seq, c.ID, err)
		}
		if content := got.Snapshot().ContentID(); got.ID != c.Commit || content != c.Content {
			return nil, fmt.Errorf("core: replaying commit %d of %s gives %s (content %s), the journal %s (content %s)",
				c.Seq, c.ID, got.ID, content, c.Commit, c.Content)
		}
	}
	svc := NewService(seed, cfg)
	pending, rejected := store.PendingFromRecords(recs)
	svc.mu.Lock()
	for _, c := range commits {
		svc.decideLocked(planner.Outcome{ID: c.ID, State: change.StateCommitted, Commit: c.Commit, At: c.At})
	}
	for _, r := range rejected {
		svc.decideLocked(planner.Outcome{ID: r.ID, State: change.StateRejected, Reason: r.Reason, At: r.At})
	}
	svc.mu.Unlock()
	for _, c := range pending {
		// Re-submissions bypass journaling (they are already recorded).
		if err := svc.submitLocked(c, false); err != nil {
			return nil, fmt.Errorf("core: recovering %s: %w", c.ID, err)
		}
	}
	j, err := store.Open(journalPath)
	if err != nil {
		return nil, err
	}
	svc.journal.Store(j)
	svc.arb.SetJournal(j)
	return svc, nil
}
