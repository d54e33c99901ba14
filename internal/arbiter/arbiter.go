// Package arbiter implements the serialized commit arbiter of the shard
// runtime (DESIGN.md §4h). The planner engine proposes commit-ready changes;
// the arbiter owns head advancement, applying proposals one at a time in
// arrival order so the mainline history is a deterministic total order. It
// also decides whether a finished decisive build still speaks for its
// subject (§5.2): every commit since the build's base that the build did not
// merge must be disjoint from the build's footprint by the conflict
// analyzer's criterion (Eq. 6). If an interleaved
// commit touches an affected target or patch path of the proposal (or either
// side changed the build-graph structure, making target comparison unsound),
// the proposal is bounced with planner.ErrCrossShardConflict and the engine
// rebuilds against the new head. Commits of the proposal's own applied
// changes are part of the build and need no re-validation. Commit runs the
// check before it commits; Check runs it alone, for a failed build about to
// reject its change.
package arbiter

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/events"
	"mastergreen/internal/planner"
	"mastergreen/internal/repo"
	"mastergreen/internal/store"
)

// Config tunes the arbiter.
type Config struct {
	// Analyzer, when non-nil, supplies cached StructureChanged verdicts for
	// proposal subjects; changes without a cached analysis are treated
	// conservatively (structure assumed changed).
	Analyzer *conflict.Analyzer
	// Events, when non-nil, receives a TypeHeadAdvanced event per commit.
	Events *events.Bus
}

// retainedHistory is the number of most recent commits whose footprint
// records are retained, in a ring that costs O(1) per commit. A proposal
// whose base is more than retainedHistory commits behind the head predates
// the window and is bounced conservatively; its rebuilt decisive build
// starts at the current head and re-enters the window.
const retainedHistory = 4096

// record is the conflict footprint of one committed change, kept so later
// proposals can re-validate against it without re-analyzing history.
type record struct {
	id        change.ID
	targets   map[string]bool
	paths     map[string]bool
	structure bool // change altered the build-graph structure
}

// Arbiter serializes head advancement.
type Arbiter struct {
	repo *repo.Repo
	cfg  Config

	// depth counts proposals currently inside Commit (waiting on mu or
	// applying); its high-water mark is the "arbiter queue depth" gauge.
	depth int64

	// history is the ring's capacity: retainedHistory, fixed before the
	// first commit.
	history int

	mu sync.Mutex
	// records is a ring of the last history commit footprints: the record of
	// commit seq s lives in slot (s-origin)%history, so the ring grows by
	// append until full and then the newest record overwrites the oldest.
	// origin is the mainline length at creation, floor the seq of the oldest
	// retained record.
	records   []record
	origin    int
	floor     int
	committed map[change.ID]bool
	stats     Stats
	journal   *store.Journal // see SetJournal
}

// New creates an arbiter over the repository. Only commits made through the
// arbiter are re-validated; the repository should not advance behind its back.
func New(r *repo.Repo, cfg Config) *Arbiter {
	return &Arbiter{
		repo:      r,
		cfg:       cfg,
		history:   retainedHistory,
		origin:    r.Len(),
		floor:     r.Len(),
		committed: map[change.ID]bool{},
	}
}

// SetJournal makes every later commit buffer its store.CommitRecord in j
// (nil: none) under the arbiter's mutex: the journal's commit order is the
// mainline's. Whoever acknowledges a commit syncs j first. Once j has
// failed, every commit fails with its error.
func (a *Arbiter) SetJournal(j *store.Journal) {
	a.mu.Lock()
	a.journal = j
	a.mu.Unlock()
}

// structureChanged resolves the subject's structure flag, conservatively
// assuming a structure change when no analysis is cached.
func (a *Arbiter) structureChanged(id change.ID) bool {
	if a.cfg.Analyzer == nil {
		return true
	}
	changed, known := a.cfg.Analyzer.StructureChanged(id)
	return changed || !known
}

// Commit applies a commit proposal, running Check's re-validation first. It
// returns planner.ErrCrossShardConflict (wrapped) when a commit after the
// proposal's base that its build did not merge conflicts with it — the
// engine then drops its decisive build and rebuilds — and the underlying
// repo error when the patch itself no longer applies (the engine rejects
// the change).
func (a *Arbiter) Commit(p planner.CommitProposal) (*repo.Commit, error) {
	d := atomic.AddInt64(&a.depth, 1)
	defer atomic.AddInt64(&a.depth, -1)

	a.mu.Lock()
	if int(d) > a.stats.MaxQueueDepth {
		a.stats.MaxQueueDepth = int(d)
	}
	commit, err := a.commitLocked(p)
	a.mu.Unlock()

	// Publish outside the lock: the bus fans out to subscriber channels,
	// which must never be sent to while holding the arbiter mutex.
	if err == nil && a.cfg.Events != nil {
		a.cfg.Events.Publish(events.Event{
			Type: events.TypeHeadAdvanced, Change: p.Change.ID,
			Detail: fmt.Sprintf("seq %d", commit.Seq),
		})
	}
	return commit, err
}

// Check runs the Eq. 6 re-validation Commit runs first, without committing:
// nil when every commit since the proposal's base that its build did not
// merge is disjoint from its footprint, planner.ErrCrossShardConflict
// (wrapped) otherwise. A planner calls it before a failed decisive build
// rejects its change, so a stale failure is rebuilt like a stale pass.
func (a *Arbiter) Check(p planner.CommitProposal) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.checkLocked(p)
}

// checkLocked re-validates a proposal against every commit since its base
// that its build did not merge. Callers hold a.mu.
func (a *Arbiter) checkLocked(p planner.CommitProposal) error {
	id := p.Change.ID
	if a.committed[id] {
		// The change has landed already. Bounce, never double-commit.
		a.stats.CrossShardRejects++
		return fmt.Errorf("%w: %s already committed", planner.ErrCrossShardConflict, id)
	}
	headLen := a.repo.Len()
	if p.BaseLen >= headLen {
		return nil
	}
	subjStructure := false
	subjStructureKnown := false
	for seq := p.BaseLen; seq < headLen; seq++ {
		if seq < a.floor {
			a.stats.CrossShardRejects++
			return fmt.Errorf("%w: %s base predates retained history", planner.ErrCrossShardConflict, id)
		}
		r := a.records[(seq-a.origin)%a.history]
		if slices.Contains(p.Applied, r.id) {
			continue // part of the decisive build
		}
		a.stats.CrossShardChecks++
		if !subjStructureKnown {
			subjStructure = a.structureChanged(id)
			subjStructureKnown = true
		}
		if conflicts, why := footprintConflict(r, subjStructure, p); conflicts {
			a.stats.CrossShardRejects++
			return fmt.Errorf("%w: %s vs committed %s (%s)", planner.ErrCrossShardConflict, id, r.id, why)
		}
	}
	return nil
}

func (a *Arbiter) commitLocked(p planner.CommitProposal) (*repo.Commit, error) {
	if err := a.checkLocked(p); err != nil {
		return nil, err
	}
	id := p.Change.ID
	headLen := a.repo.Len()
	if err := a.journal.Err(); err != nil {
		a.stats.CommitFailures++ // fail-stop: a commit the journal cannot keep must not land
		return nil, err
	}
	head := a.repo.Head()
	commit, err := a.repo.CommitPatch(head.ID, p.Change.Patch, p.Change.Author.Name, p.Change.Description, p.Now)
	if err != nil {
		a.stats.CommitFailures++
		return nil, err
	}
	if a.journal != nil {
		a.journal.Buffer(store.Record{Kind: store.KindCommit, Commit: &store.CommitRecord{
			ID: id, Seq: commit.Seq, Commit: commit.ID, At: commit.Time, Author: commit.Author,
			Message: commit.Message, Patch: p.Change.Patch.Changes, Content: commit.Snapshot().ContentID(),
		}})
	}
	a.committed[id] = true
	if rec := newRecord(p, a.structureChanged(id)); len(a.records) < a.history {
		a.records = append(a.records, rec)
	} else {
		a.records[(headLen-a.origin)%a.history] = rec
		a.floor++
	}
	a.stats.Commits++
	return commit, nil
}

// footprintConflict reports whether a committed record conflicts with a
// proposal, and why. Either side changing build-graph structure makes
// target-set comparison unsound, so it conflicts conservatively.
func footprintConflict(r record, subjStructure bool, p planner.CommitProposal) (bool, string) {
	if r.structure {
		return true, "committed change altered build-graph structure"
	}
	if subjStructure {
		return true, "proposal alters build-graph structure"
	}
	for _, t := range p.Targets {
		if r.targets[t] {
			return true, "affected target " + t
		}
	}
	for _, f := range p.Paths {
		if r.paths[f] {
			return true, "path " + f
		}
	}
	return false, ""
}

func newRecord(p planner.CommitProposal, structure bool) record {
	r := record{
		id:        p.Change.ID,
		targets:   make(map[string]bool, len(p.Targets)),
		paths:     make(map[string]bool, len(p.Paths)),
		structure: structure,
	}
	for _, t := range p.Targets {
		r.targets[t] = true
	}
	for _, f := range p.Paths {
		r.paths[f] = true
	}
	return r
}
