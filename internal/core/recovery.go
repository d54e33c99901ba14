package core

import (
	"fmt"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
	"mastergreen/internal/store"
)

// AttachJournal makes the service durable: every submission and every final
// outcome is appended to the journal (the role MySQL plays in §7.1). Call
// before Submit/Start.
func (s *Service) AttachJournal(j *store.Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// Recover replays a journal into a fresh service: every change that was
// still pending when the previous process stopped is re-enqueued, and past
// outcomes become queryable again. Returns the number of re-enqueued
// changes.
func (s *Service) Recover(records []store.Record) (int, error) {
	pending, outcomes := store.PendingFromRecords(records)
	s.mu.Lock()
	for _, o := range outcomes {
		st := Status{ID: o.ID, Reason: o.Reason, Commit: o.Commit}
		if o.State == change.StateCommitted.String() {
			st.State = change.StateCommitted
		} else {
			st.State = change.StateRejected
		}
		s.statuses[o.ID] = st
	}
	s.mu.Unlock()
	n := 0
	for _, c := range pending {
		// Re-submissions bypass journaling (they are already recorded).
		if err := s.submitLocked(c, false); err != nil {
			return n, fmt.Errorf("core: recovering %s: %w", c.ID, err)
		}
		n++
	}
	return n, nil
}

// CloseJournal flushes and detaches the journal (call after Stop; sqd's
// shutdown snapshots the journal first).
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
// journal path: the repo is loaded, undecided submissions re-enqueued, and
// the journal attached for future writes. LoadState folds the snapshot chain
// (if SnapshotJournal has run) with the live tail, so boot cost is
// proportional to live state, not total history.
func OpenRecovered(repoSnapshot *repo.Repo, journalPath string, cfg Config) (*Service, error) {
	recs, err := store.LoadState(journalPath)
	if err != nil {
		return nil, err
	}
	svc := NewService(repoSnapshot, cfg)
	if _, err := svc.Recover(recs); err != nil {
		return nil, err
	}
	j, err := store.Open(journalPath)
	if err != nil {
		return nil, err
	}
	svc.AttachJournal(j)
	return svc, nil
}
