// Journal snapshots: the one mechanism that folds the journal, keeping
// restart replay time flat as history grows. A snapshot file holds the folded
// live state (the pending set plus a bounded outcome tail) under an integrity
// header; after a snapshot the live journal is truncated, so a restart
// replays snapshot + short tail instead of the full history.
//
// On-disk layout for a journal at PATH:
//
//	PATH            the live tail (records since the last snapshot)
//	PATH.snap       the current snapshot
//	PATH.snap.prev  the previous snapshot (fallback if .snap is torn)
//
// Snapshots are written to a temp file, fsynced, and renamed into place; the
// old snapshot is rotated to .snap.prev first. Every crash window is covered:
// a torn temp file is ignored, a missing .snap falls back to .snap.prev plus
// the untruncated tail, and a tail that briefly overlaps a fresh snapshot
// folds away through PendingFromRecords' first-record-wins dedup plus the
// outcome tombstones of foldForRewrite.
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
	// repo itself is persisted separately).
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
	var base []Record
	if _, recs, err := ReplaySnapshot(SnapshotPath(path)); err == nil {
		base = recs
	} else if _, recs, err := ReplaySnapshot(prevSnapshotPath(path)); err == nil {
		base = recs
	}
	tail, err := Replay(path)
	if err != nil {
		return nil, err
	}
	return append(base, tail...), nil
}

// writeSnapshotFile writes header + records to path, fsyncing before close.
func writeSnapshotFile(path string, head SnapHead, pending []*change.Change, outcomes []OutcomeRecord) error {
	j, err := Open(path)
	if err != nil {
		return err
	}
	j.SyncEvery = 1 << 30 // one final sync on close
	head.Records = len(pending) + len(outcomes)
	if err := j.Append(Record{Kind: KindSnapHead, Snap: &head}); err != nil {
		_ = j.Close()
		return err
	}
	for _, o := range outcomes {
		if err := j.AppendOutcome(o); err != nil {
			_ = j.Close()
			return err
		}
	}
	for _, c := range pending {
		if err := j.AppendSubmit(c); err != nil {
			_ = j.Close()
			return err
		}
	}
	return j.Close()
}

// Snapshot folds the journal's full persisted state (previous snapshot plus
// live tail) into a fresh snapshot and truncates the live journal, keeping
// restart replay time proportional to the live state instead of total
// history. head stamps the mainline head, keepOutcomes bounds the retained
// outcome tail, and at is the snapshot timestamp from the caller's clock.
// Appends block for the duration; the durable-before-ack contract holds
// throughout because the tail is fsynced before it is folded and the
// snapshot is fsynced before the tail is truncated.
func (j *Journal) Snapshot(head repo.CommitID, keepOutcomes int, at time.Time) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	for j.syncing {
		j.syncDone.Wait()
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("store: snapshot flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	j.syncs++
	j.syncSeq = j.writeSeq
	j.syncDone.Broadcast()

	recs, err := LoadState(j.path)
	if err != nil {
		return err
	}
	// Tombstones: the live tail survives until the truncation below, so any
	// change it holds a submit record for must keep its outcome in the
	// snapshot — otherwise a crash before truncation could resurrect it.
	tail, err := Replay(j.path)
	if err != nil {
		return err
	}
	pending, outcomes := foldForRewrite(recs, keepOutcomes, tail)

	tmp := j.path + ".snap.tmp"
	_ = os.Remove(tmp) // a crashed prior snapshot may have left a partial temp
	//lint:ignore lockorder writeSnapshotFile appends to a fresh temp-file journal it opens itself, never the locked receiver
	if err := writeSnapshotFile(tmp, SnapHead{Head: head, At: at}, pending, outcomes); err != nil {
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
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("store: snapshot truncate: %w", err)
	}
	j.w.Reset(j.f)
	j.appends = 0
	return nil
}
