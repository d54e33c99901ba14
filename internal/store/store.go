// Package store is SubmitQueue's durable state backend — the role MySQL
// plays in the paper's deployment (§7.1): an append-only journal of
// submissions, rejections and one commit record per mainline commit, with
// crash-safe replay, folded by Journal.Snapshot. On restart, the core service
// replays the commit records onto the seed repository and re-enqueues every
// change that was pending, so neither a commit nor a submission is lost.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// Record kinds.
const (
	KindSubmit  = "submit"
	KindOutcome = "outcome"
	KindCommit  = "commit"
	// KindSnapHead is the header record of a snapshot file (see snapshot.go).
	KindSnapHead = "snap-head"
)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("store: journal closed")

// OutcomeRecord is the durable form of a final disposition other than a
// commit (the service writes rejections; a commit is its CommitRecord).
type OutcomeRecord struct {
	ID     change.ID `json:"id"`
	State  string    `json:"state"`
	Reason string    `json:"reason,omitempty"`
	At     time.Time `json:"at"`
}

// CommitRecord is one mainline commit and the decision of the change it
// landed: replayed onto the seed in Seq order, the records rebuild the
// mainline, and Content checks each step.
type CommitRecord struct {
	ID      change.ID         `json:"id"`
	Seq     int               `json:"seq"`
	Commit  repo.CommitID     `json:"commit"`
	At      time.Time         `json:"at"`
	Author  string            `json:"author"`
	Message string            `json:"message"`
	Patch   []repo.FileChange `json:"patch"`
	Content string            `json:"content"` // the new head's Snapshot.ContentID
}

// Record is one journal entry. A submit record is the change itself, in
// change.Change's JSON form.
type Record struct {
	Kind    string         `json:"kind"`
	Submit  *change.Change `json:"submit,omitempty"`
	Outcome *OutcomeRecord `json:"outcome,omitempty"`
	Commit  *CommitRecord  `json:"commit,omitempty"`
	Snap    *SnapHead      `json:"snap,omitempty"`
}

// Journal is an append-only JSON-lines log. Safe for concurrent use.
//
// Durability is group-committed: Append returns after its record is fsynced,
// and records buffered while a leader syncs all ride the next fsync. Buffer
// adds a record without waiting; one later Sync makes a batch durable.
type Journal struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	w      *bufio.Writer
	closed bool
	// SyncEvery > 1 switches Append to a batched mode for bulk writes: only
	// every Nth append fsyncs and none waits (Close still syncs).
	SyncEvery int
	appends   int

	// Group-commit state. writeSeq numbers buffered records; syncSeq is the
	// highest record covered by a completed fsync. A single leader holds
	// syncing while it flushes+fsyncs outside the lock; followers wait on
	// syncDone. err is sticky: after a failed write or fsync nothing later
	// is known to be durable.
	syncDone *sync.Cond
	writeSeq int64
	syncSeq  int64
	syncing  bool
	err      error
	syncs    int64
	// foldMu serializes Snapshot, which folds outside mu.
	foldMu sync.Mutex
}

// Open creates or appends to a journal file, ending it on a line boundary
// first (see cutTornTail), so a new record never continues a torn one.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	if err := cutTornTail(f); err != nil {
		_ = f.Close() // the repair error is the one to report
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	j := &Journal{path: path, f: f, w: bufio.NewWriter(f), SyncEvery: 1}
	j.syncDone = sync.NewCond(&j.mu)
	return j, nil
}

// cutTornTail ends the file on a line boundary: a final line without its
// newline gets one if it decodes (Replay counts it as a record) and is cut
// off otherwise (Replay ignores it as torn). It reads back from the end in
// chunks, only as far as the last newline.
func cutTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	end := st.Size()
	keep, chunk := end, make([]byte, 4096)
	for keep > 0 {
		n := min(keep, int64(len(chunk)))
		if _, err := f.ReadAt(chunk[:n], keep-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(chunk[:n], '\n'); i >= 0 {
			keep += int64(i) + 1 - n
			break
		}
		keep -= n
	}
	if keep == end {
		return nil
	}
	last := make([]byte, end-keep)
	if _, err := f.ReadAt(last, keep); err != nil {
		return err
	}
	if json.Unmarshal(last, new(Record)) == nil {
		_, err = f.Write([]byte{'\n'})
		return err
	}
	return f.Truncate(keep)
}

// Syncs returns the number of fsyncs issued so far (observability: under
// concurrent load this stays far below the append count).
func (j *Journal) Syncs() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncs
}

// Appends returns the number of records appended since open (or since the
// last snapshot truncation).
func (j *Journal) Appends() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Append is Buffer then Sync: it returns after the record is on disk. With
// SyncEvery > 1 it only flushes, fsyncing every Nth record.
func (j *Journal) Append(rec Record) error {
	data, err := json.Marshal(rec)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.writeLocked(data, err); err != nil {
		return err
	}
	if j.SyncEvery > 1 {
		err := j.w.Flush()
		if err == nil && j.appends%j.SyncEvery == 0 {
			j.syncs++
			err = j.f.Sync()
		}
		return j.failLocked("sync", err)
	}
	//lint:ignore lockorder waitDurableLocked releases j.mu around the fsync before re-acquiring it
	return j.waitDurableLocked(j.writeSeq)
}

// Buffer adds a record without waiting for the disk; a later Sync makes it
// durable, or reports why it cannot be.
func (j *Journal) Buffer(rec Record) {
	data, err := json.Marshal(rec)
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.writeLocked(data, err) // a failure poisons the journal, so Sync reports it
}

// Err returns the error that poisoned the journal (nil for a nil journal):
// once a record could not be written or synced, nothing later is known to
// be durable and every Append, Sync and Snapshot fails with it.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Sync returns once every record buffered so far is durable.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	//lint:ignore lockorder waitDurableLocked releases j.mu around the fsync before re-acquiring it
	return j.waitDurableLocked(j.writeSeq)
}

// writeLocked buffers one record, encoded as data or failed to encode with
// encErr. Callers hold j.mu.
func (j *Journal) writeLocked(data []byte, encErr error) error {
	if j.closed {
		_ = j.failLocked("write", ErrClosed)
		return ErrClosed
	}
	if err := j.failLocked("marshal", encErr); err != nil {
		return err
	}
	_, err := j.w.Write(data)
	if err == nil {
		err = j.w.WriteByte('\n')
	}
	if err := j.failLocked("write", err); err != nil {
		return err
	}
	j.appends++
	j.writeSeq++
	return nil
}

// failLocked poisons the journal with err (nil: no-op) unless it already is,
// and returns the journal's error. Callers hold j.mu.
func (j *Journal) failLocked(op string, err error) error {
	if j.err == nil && err != nil {
		j.err = fmt.Errorf("store: %s: %w", op, err)
	}
	return j.err
}

// syncAllLocked makes every record written so far durable and returns the
// tail's length in bytes. Callers hold j.mu.
func (j *Journal) syncAllLocked() (int64, error) {
	for j.syncing {
		j.syncDone.Wait()
	}
	if j.closed {
		return 0, ErrClosed
	}
	if j.syncSeq < j.writeSeq {
		err := j.w.Flush()
		if err == nil {
			j.syncs++
			err = j.f.Sync()
		}
		if err := j.failLocked("sync", err); err != nil {
			return 0, err
		}
		j.syncSeq = j.writeSeq
		j.syncDone.Broadcast()
	}
	if j.err != nil {
		return 0, j.err
	}
	st, err := j.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: stat: %w", err)
	}
	return st.Size(), nil
}

// waitDurableLocked blocks until the record numbered seq is covered by a
// completed fsync, electing this goroutine as the sync leader when no fsync
// is in flight. Callers hold j.mu.
func (j *Journal) waitDurableLocked(seq int64) error {
	for j.syncSeq < seq && j.err == nil {
		if j.syncing {
			j.syncDone.Wait()
			continue
		}
		// Become the leader: everything buffered so far rides this fsync.
		j.syncing = true
		target := j.writeSeq
		ferr := j.w.Flush()
		j.mu.Unlock()
		serr := ferr
		if serr == nil {
			serr = j.f.Sync()
		}
		j.mu.Lock()
		j.syncs++
		j.syncSeq = target
		_ = j.failLocked("sync", serr)
		j.syncing = false
		j.syncDone.Broadcast()
	}
	return j.err
}

// AppendSubmit records a submission.
func (j *Journal) AppendSubmit(c *change.Change) error {
	return j.Append(Record{Kind: KindSubmit, Submit: c})
}

// AppendOutcome records a final disposition.
func (j *Journal) AppendOutcome(o OutcomeRecord) error {
	return j.Append(Record{Kind: KindOutcome, Outcome: &o})
}

// Close flushes and closes the journal. In-flight group commits complete
// first; their waiters are released with their records durable. A poisoned
// journal closes with its error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	for j.syncing {
		j.syncDone.Wait()
	}
	j.closed = true
	err := j.w.Flush()
	if err == nil {
		j.syncs++
		err = j.f.Sync()
	}
	if j.failLocked("sync", err) == nil {
		j.syncSeq = j.writeSeq
	}
	j.syncDone.Broadcast()
	return errors.Join(j.err, j.f.Close())
}

// Replay decodes all records of a journal file as it scans it. A trailing
// partial line (torn write from a crash) is tolerated and ignored;
// corruption anywhere else is an error.
func Replay(path string) ([]Record, error) { return replayPrefix(path, -1) }

// replayPrefix is Replay over the first limit bytes of the file (all of it
// if limit < 0).
func replayPrefix(path string, limit int64) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: open for replay: %w", err)
	}
	defer f.Close()
	size := limit
	if st, err := f.Stat(); err == nil && (limit < 0 || st.Size() < limit) {
		size = st.Size()
	}
	sc := bufio.NewScanner(io.LimitReader(f, size))
	// Size the scan buffer to the file: a freshly-snapshotted journal is a
	// few KB and replaying it should not cost a megabyte of buffer.
	bufCap := 1 << 20
	if size+4096 < int64(bufCap) {
		bufCap = int(size) + 4096
	}
	sc.Buffer(make([]byte, 0, bufCap), 64<<20)
	var out []Record
	var torn error // the last line read failed to decode: torn if it is the last
	line := 0
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		if torn != nil {
			return nil, torn
		}
		line++
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			torn = fmt.Errorf("store: corrupt record at line %d: %w", line, err)
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("store: replay: %w", err)
	}
	return out, nil
}

// PendingFromRecords folds a replayed journal into the set of changes that
// were still undecided (a commit record decides its change), in submission
// order, plus all recorded outcomes. Duplicate records for one change ID —
// which arise when a snapshot and the journal tail briefly overlap after a
// crash mid-rotation — fold to the first occurrence: the snapshot replays
// before the tail, so the earliest record wins and a decision never flips.
func PendingFromRecords(recs []Record) (pending []*change.Change, outcomes []OutcomeRecord) {
	decided := map[change.ID]bool{}
	for _, r := range recs {
		if r.Kind == KindCommit && r.Commit != nil {
			decided[r.Commit.ID] = true
		}
	}
	for _, r := range recs {
		if r.Kind == KindOutcome && r.Outcome != nil {
			if decided[r.Outcome.ID] {
				continue // duplicate disposition: first decision wins
			}
			decided[r.Outcome.ID] = true
			outcomes = append(outcomes, *r.Outcome)
		}
	}
	seen := map[change.ID]bool{}
	for _, r := range recs {
		if r.Kind == KindSubmit && r.Submit != nil && !decided[r.Submit.ID] && !seen[r.Submit.ID] {
			seen[r.Submit.ID] = true
			pending = append(pending, r.Submit)
		}
	}
	return pending, outcomes
}

// Mainline returns the commit records of a replayed journal in Seq order.
// A Seq seen before (a snapshot and the tail it folded overlap after a crash
// mid-rotation) folds away if it names the same commit of the same change; a
// gap, or a second change at one Seq, is an error.
func Mainline(recs []Record) ([]*CommitRecord, error) {
	var out []*CommitRecord
	for _, r := range recs {
		c, n := r.Commit, len(out)
		switch {
		case r.Kind != KindCommit || c == nil:
		case n == 0 || c.Seq == out[n-1].Seq+1:
			out = append(out, c)
		case c.Seq < out[0].Seq || c.Seq > out[n-1].Seq || out[c.Seq-out[0].Seq].Commit != c.Commit || out[c.Seq-out[0].Seq].ID != c.ID:
			return nil, fmt.Errorf("store: commit record %s at seq %d does not follow seq %d", c.Commit, c.Seq, out[n-1].Seq)
		}
	}
	return out, nil
}

// foldForRewrite reduces a record chain to the live state a snapshot must
// preserve: every commit record, the pending set, plus the most recent
// keepOutcomes outcomes, plus a tombstone outcome for every decided change
// whose submit record still exists in a file that survives the snapshot
// (tombstoneFrom). Without the tombstones, a crash between the snapshot's
// rename and the truncation of the surviving file could resurrect a decided
// change: its submit would replay from the survivor with no outcome left to
// decide it. A committed change needs none: its commit record is kept.
func foldForRewrite(recs []Record, keepOutcomes int, tombstoneFrom []Record) (commits []*CommitRecord, pending []*change.Change, outcomes []OutcomeRecord, err error) {
	if commits, err = Mainline(recs); err != nil {
		return nil, nil, nil, err
	}
	pending, all := PendingFromRecords(recs)
	survivors := map[change.ID]bool{}
	for _, r := range tombstoneFrom {
		if r.Kind == KindSubmit && r.Submit != nil {
			survivors[r.Submit.ID] = true
		}
	}
	cut := 0
	if keepOutcomes >= 0 && len(all) > keepOutcomes {
		cut = len(all) - keepOutcomes
	}
	for i, o := range all {
		if i >= cut || survivors[o.ID] {
			outcomes = append(outcomes, o)
		}
	}
	return commits, pending, outcomes, nil
}
