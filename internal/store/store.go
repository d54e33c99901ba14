// Package store is SubmitQueue's durable state backend — the role MySQL
// plays in the paper's deployment (§7.1). It provides an append-only journal
// of service events (submissions and final outcomes) with crash-safe replay,
// folded by Journal.Snapshot into a snapshot of the live state, which drops
// decided changes past a bounded outcome tail. On restart, the core service
// replays the journal to re-enqueue every change that was pending when the
// process died, so no developer submission is ever lost.
package store

import (
	"bufio"
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
	// KindSnapHead is the header record of a snapshot file (see snapshot.go).
	KindSnapHead = "snap-head"
)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("store: journal closed")

// SubmittedChange is the durable form of a change submission.
type SubmittedChange struct {
	ID          change.ID          `json:"id"`
	Author      change.Developer   `json:"author"`
	Description string             `json:"description"`
	SubmittedAt time.Time          `json:"submitted_at"`
	BaseCommit  repo.CommitID      `json:"base_commit"`
	Steps       []SubmittedStep    `json:"steps"`
	Patch       []SubmittedFile    `json:"patch"`
	Revision    *SubmittedRevision `json:"revision,omitempty"`
	Stats       change.Stats       `json:"stats"`
}

// SubmittedStep serializes one build step.
type SubmittedStep struct {
	Name    string   `json:"name"`
	Kind    int      `json:"kind"`
	Targets []string `json:"targets,omitempty"`
}

// SubmittedFile serializes one file edit.
type SubmittedFile struct {
	Path     string `json:"path"`
	Op       int    `json:"op"`
	BaseHash string `json:"base_hash,omitempty"`
	Content  string `json:"content,omitempty"`
	// Line-edit fields (repo.OpEditLines).
	StartLine int      `json:"start_line,omitempty"`
	OldLines  []string `json:"old_lines,omitempty"`
	NewLines  []string `json:"new_lines,omitempty"`
}

// SubmittedRevision serializes the revision container.
type SubmittedRevision struct {
	ID          change.RevisionID `json:"id"`
	SubmitCount int               `json:"submit_count"`
	TestPlan    bool              `json:"test_plan"`
	RevertPlan  bool              `json:"revert_plan"`
}

// OutcomeRecord is the durable form of a final disposition.
type OutcomeRecord struct {
	ID     change.ID     `json:"id"`
	State  string        `json:"state"` // "committed" or "rejected"
	Reason string        `json:"reason,omitempty"`
	Commit repo.CommitID `json:"commit,omitempty"`
	At     time.Time     `json:"at"`
}

// Record is one journal entry.
type Record struct {
	Kind    string           `json:"kind"`
	Submit  *SubmittedChange `json:"submit,omitempty"`
	Outcome *OutcomeRecord   `json:"outcome,omitempty"`
	Snap    *SnapHead        `json:"snap,omitempty"`
}

// EncodeChange converts a change into its durable form.
func EncodeChange(c *change.Change) *SubmittedChange {
	sc := &SubmittedChange{
		ID:          c.ID,
		Author:      c.Author,
		Description: c.Description,
		SubmittedAt: c.SubmittedAt,
		BaseCommit:  c.BaseCommit,
		Stats:       c.Stats,
	}
	for _, s := range c.BuildSteps {
		sc.Steps = append(sc.Steps, SubmittedStep{Name: s.Name, Kind: int(s.Kind), Targets: s.Targets})
	}
	for _, fc := range c.Patch.Changes {
		sc.Patch = append(sc.Patch, SubmittedFile{
			Path: fc.Path, Op: int(fc.Op), BaseHash: fc.BaseHash, Content: fc.NewContent,
			StartLine: fc.StartLine, OldLines: fc.OldLines, NewLines: fc.NewLines,
		})
	}
	if c.Revision != nil {
		sc.Revision = &SubmittedRevision{
			ID: c.Revision.ID, SubmitCount: c.Revision.SubmitCount,
			TestPlan: c.Revision.TestPlan, RevertPlan: c.Revision.RevertPlan,
		}
	}
	return sc
}

// DecodeChange reconstructs a change from its durable form.
func DecodeChange(sc *SubmittedChange) *change.Change {
	c := &change.Change{
		ID:          sc.ID,
		Author:      sc.Author,
		Description: sc.Description,
		SubmittedAt: sc.SubmittedAt,
		BaseCommit:  sc.BaseCommit,
		Stats:       sc.Stats,
	}
	for _, s := range sc.Steps {
		c.BuildSteps = append(c.BuildSteps, change.BuildStep{
			Name: s.Name, Kind: change.StepKind(s.Kind), Targets: s.Targets,
		})
	}
	for _, f := range sc.Patch {
		c.Patch.Changes = append(c.Patch.Changes, repo.FileChange{
			Path: f.Path, Op: repo.FileOp(f.Op), BaseHash: f.BaseHash, NewContent: f.Content,
			StartLine: f.StartLine, OldLines: f.OldLines, NewLines: f.NewLines,
		})
	}
	if sc.Revision != nil {
		c.Revision = &change.Revision{
			ID: sc.Revision.ID, Author: sc.Author, SubmitCount: sc.Revision.SubmitCount,
			TestPlan: sc.Revision.TestPlan, RevertPlan: sc.Revision.RevertPlan,
		}
	}
	return c
}

// Journal is an append-only JSON-lines log. Safe for concurrent use.
//
// Durability is group-committed: every Append returns only after its record
// is fsynced (durable-before-ack), but concurrent Appends coalesce into one
// Sync — while a leader fsyncs, later appenders buffer their records and
// wait, and the next leader's single fsync covers all of them. Under a
// serial writer this degenerates to one fsync per append, exactly the old
// behavior; under concurrency the fsync count drops by the batch factor.
type Journal struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	w      *bufio.Writer
	closed bool
	// SyncEvery > 1 switches to the legacy batched mode used by bulk
	// rewrites: only every Nth append fsyncs and Append never waits for
	// durability (Close still flushes and syncs). 0 or 1 is the durable
	// group-commit mode.
	SyncEvery int
	appends   int

	// Group-commit state. writeSeq numbers buffered records; syncSeq is the
	// highest record covered by a completed fsync. A single leader holds
	// syncing while it flushes+fsyncs outside the lock; followers wait on
	// syncDone. A failed fsync poisons records up to errSeq with errVal.
	syncDone *sync.Cond
	writeSeq int64
	syncSeq  int64
	syncing  bool
	errSeq   int64
	errVal   error
	syncs    int64
}

// Open creates or appends to a journal file.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	j := &Journal{path: path, f: f, w: bufio.NewWriter(f), SyncEvery: 1}
	j.syncDone = sync.NewCond(&j.mu)
	return j, nil
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

// Append writes a record durably: it returns after the record is on disk.
func (j *Journal) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if _, err := j.w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("store: write: %w", err)
	}
	j.appends++
	if j.SyncEvery > 1 {
		// Legacy batched mode: periodic fsync, no durability wait.
		if err := j.w.Flush(); err != nil {
			return fmt.Errorf("store: flush: %w", err)
		}
		if j.appends%j.SyncEvery == 0 {
			j.syncs++
			if err := j.f.Sync(); err != nil {
				return fmt.Errorf("store: sync: %w", err)
			}
		}
		return nil
	}
	j.writeSeq++
	//lint:ignore lockorder waitDurableLocked releases j.mu around the fsync before re-acquiring it
	return j.waitDurableLocked(j.writeSeq)
}

// waitDurableLocked blocks until the record numbered seq is covered by a
// completed fsync, electing this goroutine as the sync leader when no fsync
// is in flight. Callers hold j.mu.
func (j *Journal) waitDurableLocked(seq int64) error {
	for j.syncSeq < seq {
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
		if serr != nil {
			j.errSeq = target
			j.errVal = serr
		}
		j.syncing = false
		j.syncDone.Broadcast()
	}
	if seq <= j.errSeq && j.errVal != nil {
		return fmt.Errorf("store: sync: %w", j.errVal)
	}
	return nil
}

// AppendSubmit records a submission.
func (j *Journal) AppendSubmit(c *change.Change) error {
	return j.Append(Record{Kind: KindSubmit, Submit: EncodeChange(c)})
}

// AppendOutcome records a final disposition.
func (j *Journal) AppendOutcome(o OutcomeRecord) error {
	return j.Append(Record{Kind: KindOutcome, Outcome: &o})
}

// Close flushes and closes the journal. In-flight group commits complete
// first; their waiters are released with their records durable.
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
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.syncs++
	j.syncSeq = j.writeSeq
	j.syncDone.Broadcast()
	return j.f.Close()
}

// Replay reads all records from a journal file. A trailing partial line
// (torn write from a crash) is tolerated and ignored; corruption anywhere
// else is an error.
func Replay(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: open for replay: %w", err)
	}
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	// Size the scan buffer to the file: a freshly-snapshotted journal is a
	// few KB and replaying it should not cost a megabyte of buffer.
	bufCap := 1 << 20
	if st, err := f.Stat(); err == nil && st.Size()+4096 < int64(bufCap) {
		bufCap = int(st.Size()) + 4096
	}
	sc.Buffer(make([]byte, 0, bufCap), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("store: replay: %w", err)
	}
	var out []Record
	for i, line := range lines {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-1 {
				break // torn final record from a crash: ignore
			}
			return nil, fmt.Errorf("store: corrupt record at line %d: %w", i+1, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// PendingFromRecords folds a replayed journal into the set of changes that
// were still undecided, in submission order, plus all recorded outcomes.
// Duplicate records for one change ID — which arise when a snapshot and the
// journal tail briefly overlap after a crash mid-rotation — fold to the
// first occurrence: the snapshot replays before the tail, so the earliest
// record wins and a final disposition never flips.
func PendingFromRecords(recs []Record) (pending []*change.Change, outcomes []OutcomeRecord) {
	decided := map[change.ID]bool{}
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
			pending = append(pending, DecodeChange(r.Submit))
		}
	}
	return pending, outcomes
}

// foldForRewrite reduces a record chain to the live state a snapshot must
// preserve: the pending set, plus the most recent keepOutcomes outcomes,
// plus a tombstone outcome for every decided change whose submit record
// still exists in a file that survives the snapshot (tombstoneFrom). Without
// the tombstones, a crash between the snapshot's rename and the truncation of
// the surviving file could resurrect a decided change: its submit would
// replay from the survivor with no outcome left to decide it.
func foldForRewrite(recs []Record, keepOutcomes int, tombstoneFrom []Record) (pending []*change.Change, outcomes []OutcomeRecord) {
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
	return pending, outcomes
}
