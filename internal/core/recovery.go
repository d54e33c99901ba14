package core

import (
	"fmt"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
	"mastergreen/internal/store"
)

// CloseJournal flushes and detaches the journal (call after Stop;
// api.Stack.Close snapshots the journal first).
func (s *Service) CloseJournal() error {
	s.mu.Lock()
	j := s.journal
	s.journal = nil
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Close()
}

// SnapshotJournal folds the journal's history into a snapshot (pending set
// plus a bounded outcome tail) and truncates the live journal, keeping
// restart replay time flat as history grows. No-op without a journal.
func (s *Service) SnapshotJournal(keepOutcomes int) error {
	s.mu.Lock()
	j := s.journal
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Snapshot(s.repo.Head().ID, keepOutcomes, s.cfg.Now())
}

// OpenRecovered builds a durable service from a saved repository and a
// journal path: every change still pending when the previous process stopped
// is re-enqueued, past outcomes become queryable again, and the journal is
// attached for future writes (the role MySQL plays in §7.1). LoadState folds
// the snapshot chain (if SnapshotJournal has run) with the live tail, so boot
// cost is proportional to live state, not total history.
func OpenRecovered(repoSnapshot *repo.Repo, journalPath string, cfg Config) (*Service, error) {
	recs, err := store.LoadState(journalPath)
	if err != nil {
		return nil, err
	}
	svc := NewService(repoSnapshot, cfg)
	pending, outcomes := store.PendingFromRecords(recs)
	svc.mu.Lock()
	for _, o := range outcomes {
		st := Status{ID: o.ID, Reason: o.Reason, Commit: o.Commit}
		if o.State == change.StateCommitted.String() {
			st.State = change.StateCommitted
		} else {
			st.State = change.StateRejected
		}
		svc.statuses[o.ID] = st
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
	svc.journal = j // no other goroutine holds svc yet
	return svc, nil
}
