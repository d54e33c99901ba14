// Journal snapshots: the one mechanism that folds the journal. A snapshot
// file holds the folded state (every commit record, the pending set and a
// bounded outcome tail) under an integrity header; after a snapshot the
// folded records are cut off the live journal, so a restart replays
// snapshot + short tail.
//
// On-disk layout for a journal at PATH:
//
//	PATH            the live tail (records since the last snapshot)
//	PATH.snap       the current snapshot
//	PATH.snap.prev  the previous snapshot (fallback if .snap is torn)
//
// Snapshots are written to a temp file, fsynced, and renamed into place; the
// old snapshot is rotated to .snap.prev first. Records appended while a fold
// ran reach the cut tail the same way, through PATH.tmp. Every crash window
// is covered: a torn temp file is ignored, a missing .snap falls back to
// .snap.prev plus the uncut tail, and a tail that briefly overlaps a fresh
// snapshot folds away through PendingFromRecords' first-record-wins dedup,
// Mainline's seq dedup and the outcome tombstones of foldForRewrite.
package store

import (
	"fmt"
	"os"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// SnapHead is the integrity header leading a snapshot file: a snapshot is
// valid only when it starts with a SnapHead whose Records count matches the
// number of records that follow. A torn or partially-written snapshot fails
// this check and the loader falls back to the previous snapshot.
type SnapHead struct {
	// Head is the mainline head commit at snapshot time (informational; the
	// snapshot's commit records are the mainline itself).
	Head repo.CommitID `json:"head"`
	// Records is the number of records following this header.
	Records int `json:"records"`
	// At is the snapshot timestamp (injected by the caller's clock).
	At time.Time `json:"at"`
}

// SnapshotPath returns the current-snapshot path for a journal path.
func SnapshotPath(path string) string { return path + ".snap" }

func prevSnapshotPath(path string) string { return path + ".snap.prev" }

// errNoSnapshot distinguishes "no snapshot file" from a corrupt one.
var errNoSnapshot = fmt.Errorf("store: no snapshot")

// ReplaySnapshot reads and validates a snapshot file, returning its header
// and the records it folds. A missing, torn, or header-less file is an
// error; callers fall back to the previous snapshot or to no snapshot.
func ReplaySnapshot(path string) (SnapHead, []Record, error) {
	if _, err := os.Stat(path); err != nil {
		return SnapHead{}, nil, errNoSnapshot
	}
	recs, err := Replay(path)
	if err != nil {
		return SnapHead{}, nil, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	if len(recs) == 0 || recs[0].Kind != KindSnapHead || recs[0].Snap == nil {
		return SnapHead{}, nil, fmt.Errorf("store: snapshot %s: missing header", path)
	}
	head := *recs[0].Snap
	body := recs[1:]
	if len(body) != head.Records {
		return SnapHead{}, nil, fmt.Errorf("store: snapshot %s: torn (%d records, header says %d)",
			path, len(body), head.Records)
	}
	return head, body, nil
}

// LoadState replays a journal's full persisted state: the newest valid
// snapshot (current, else previous, else none) followed by the live tail.
// The returned records feed PendingFromRecords exactly like a plain replay.
func LoadState(path string) ([]Record, error) {
	base, tail, err := loadState(path, -1)
	return append(base, tail...), err
}

// loadState is LoadState over the first tailBytes of the tail (all of it if
// tailBytes < 0), returning the snapshot's records and the tail's apart.
func loadState(path string, tailBytes int64) (base, tail []Record, err error) {
	if _, recs, err := ReplaySnapshot(SnapshotPath(path)); err == nil {
		base = recs
	} else if _, recs, err := ReplaySnapshot(prevSnapshotPath(path)); err == nil {
		base = recs
	}
	tail, err = replayPrefix(path, tailBytes)
	return base, tail, err
}

// writeSnapshotFile writes header + records to path, fsyncing before close.
func writeSnapshotFile(path string, head SnapHead, commits []*CommitRecord, pending []*change.Change, outcomes []OutcomeRecord) error {
	j, err := Open(path)
	if err != nil {
		return err
	}
	head.Records = len(commits) + len(pending) + len(outcomes)
	j.Buffer(Record{Kind: KindSnapHead, Snap: &head})
	for _, c := range commits {
		j.Buffer(Record{Kind: KindCommit, Commit: c})
	}
	for i := range outcomes {
		j.Buffer(Record{Kind: KindOutcome, Outcome: &outcomes[i]})
	}
	for _, c := range pending {
		j.Buffer(Record{Kind: KindSubmit, Submit: c})
	}
	return j.Close()
}

// Snapshot folds the journal's full persisted state (newest snapshot plus
// live tail) into a fresh snapshot and cuts the folded records off the tail.
// Commit records are all kept; keepOutcomes bounds the other outcomes. head
// stamps the mainline head and at is the snapshot timestamp from the
// caller's clock.
//
// The fold reads and writes outside the journal's lock, over the prefix of
// the tail that was fsynced when it began; records go on being appended
// meanwhile. The lock is held again only to install the snapshot and cut
// the prefix, so a Buffer waits for two fsyncs and a rename, not for the
// fold. No acknowledged record is ever only in memory: the prefix is fsynced
// before it is folded, the snapshot before it is installed, and the records
// past the prefix before the cut.
func (j *Journal) Snapshot(head repo.CommitID, keepOutcomes int, at time.Time) error {
	j.foldMu.Lock()
	defer j.foldMu.Unlock()
	j.mu.Lock()
	prefix, err := j.syncAllLocked()
	frozenAppends := j.appends
	j.mu.Unlock()
	if err != nil {
		return err
	}

	base, tail, err := loadState(j.path, prefix)
	if err != nil {
		return err
	}
	// Tombstones: the folded prefix survives until the cut below, so any
	// change it holds a submit record for must keep its outcome in the
	// snapshot — otherwise a crash before the cut could resurrect it.
	commits, pending, outcomes, err := foldForRewrite(append(base, tail...), keepOutcomes, tail)
	if err != nil {
		return err
	}
	tmp := j.path + ".snap.tmp"
	_ = os.Remove(tmp) // a crashed prior snapshot may have left a partial temp
	if err := writeSnapshotFile(tmp, SnapHead{Head: head, At: at}, commits, pending, outcomes); err != nil {
		return err
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	end, err := j.syncAllLocked()
	if err != nil {
		_ = os.Remove(tmp) // never installed
		return err
	}
	snap := SnapshotPath(j.path)
	if _, err := os.Stat(snap); err == nil {
		if err := os.Rename(snap, prevSnapshotPath(j.path)); err != nil {
			return fmt.Errorf("store: snapshot rotate: %w", err)
		}
	}
	if err := os.Rename(tmp, snap); err != nil {
		return fmt.Errorf("store: snapshot install: %w", err)
	}
	if err := j.cutLocked(prefix, end); err != nil {
		return err
	}
	j.appends -= frozenAppends
	return nil
}

// cutLocked drops the first n of the tail's end bytes, all durable, now
// that a snapshot holds them. The records past n move to a fresh file,
// fsynced, renamed over the tail and appended to from then on, so a crash
// leaves one whole tail or the other (the longer one overlaps the snapshot,
// which replay folds away). Callers hold j.mu.
func (j *Journal) cutLocked(n, end int64) error {
	if n == end {
		if err := j.f.Truncate(0); err != nil {
			return fmt.Errorf("store: snapshot truncate: %w", err)
		}
		return nil
	}
	rest := make([]byte, end-n)
	if _, err := j.f.ReadAt(rest, n); err != nil {
		return fmt.Errorf("store: snapshot cut: %w", err)
	}
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot cut: %w", err)
	}
	if _, err = f.Write(rest); err == nil {
		j.syncs++
		if err = f.Sync(); err == nil {
			err = os.Rename(tmp, j.path)
		}
	}
	if err != nil {
		_ = f.Close() // the old tail stays whole and current
		return fmt.Errorf("store: snapshot cut: %w", err)
	}
	_ = j.f.Close() // every byte of it past n is in f
	j.f = f
	j.w.Reset(f)
	return nil
}
