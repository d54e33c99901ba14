// Package planner implements the paper's planner engine (§3.2, §6): on every
// epoch it consults the conflict analyzer and the speculation engine, then
// (1) schedules the selected builds through the build controller, (2) aborts
// builds that fell out of the selected set, and (3) commits a change's patch
// into the monorepo once it is safe — i.e. once every conflicting predecessor
// is resolved and a finished build exists whose speculation assumptions match
// what actually happened.
//
// Builds are identified by a *dynamic key*: the changes the build merged
// that have not committed yet, plus its rejection assumptions that have not
// been confirmed. The key names no base, so identity survives head
// movement — after C1 commits, the running build H⊕C1⊕C2 is recognized as
// exactly the build the new plan wants for C2, after C1 is rejected the
// build "C2 assuming C1 rejected" becomes simply C2's decisive build, and
// after an independent C0 commits, C2's decisive build at the older base is
// still C2's decisive build. Whether a finished decisive build still speaks
// for its subject is settled when it decides, by Eq. 6: every commit since
// its base that it did not merge must be disjoint from its footprint (the
// Committer's Check). Builds whose assumptions have been falsified stop
// matching any plan and are aborted.
package planner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mastergreen/internal/buildgraph"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/clock"
	"mastergreen/internal/conflict"
	"mastergreen/internal/events"
	"mastergreen/internal/queue"
	"mastergreen/internal/reliability"
	"mastergreen/internal/repo"
	"mastergreen/internal/sched"
	"mastergreen/internal/speculation"
)

// ErrStopped is returned by the shard runtime's engine loop when its context
// is cancelled.
var ErrStopped = errors.New("planner: stopped")

// ErrCrossShardConflict is returned by a Committer when re-validation against
// commits that landed after the decisive build's base fails: one the build
// did not merge touches its footprint. The planner reacts by dropping the
// decisive build so reconcile schedules a fresh one against the new head —
// the change is rebuilt, not rejected.
var ErrCrossShardConflict = errors.New("planner: cross-shard conflict at commit")

// ConflictSource supplies the conflict graph the planner plans over. In the
// service the engine receives a view of the shard coordinator's cached
// global graph; standalone planners (tests, probes) pass a *conflict.Analyzer
// directly.
type ConflictSource interface {
	BuildGraph(pending []*change.Change) (*conflict.Graph, map[change.ID]error)
}

// CommitProposal describes a commit-ready change a planner wants to land:
// the decisive build's base, everything the build merged, and the footprint
// a commit arbiter needs for its Eq. 6 re-validation (DESIGN.md §4h).
type CommitProposal struct {
	// Change is the subject whose decisive build passed.
	Change *change.Change
	// BaseLen is the repo mainline length at the decisive build's base; any
	// commit at sequence >= BaseLen landed after the build started.
	BaseLen int
	// Applied are the changes the decisive build merged (assumed-committed
	// predecessors followed by the subject); interleaved commits of these
	// changes are part of the build and need no re-validation.
	Applied []change.ID
	// Targets are the affected-target names of the decisive build's delta.
	Targets []string
	// Paths are the files the subject's patch touches.
	Paths []string
	// Now is the commit timestamp, read from the planner's clock.
	Now time.Time
}

// Committer owns head advancement. In the service the engine routes
// proposals through the serialized commit arbiter, which re-validates every
// commit since the decisive build's base by Eq. 6 and applies commits in a
// deterministic total order; a standalone planner with Config.Committer nil
// commits directly with repo.CommitPatch, and only when every commit since
// the base is one the build merged.
type Committer interface {
	Commit(p CommitProposal) (*repo.Commit, error)
	// Check runs Commit's re-validation without committing: a failed
	// decisive build rejects its change only when Check passes.
	Check(p CommitProposal) error
}

// Outcome records the final disposition of a change.
type Outcome struct {
	ID     change.ID
	State  change.State // StateCommitted or StateRejected
	Reason string       // rejection reason
	Commit repo.CommitID
	At     time.Time
}

// Config tunes the planner.
type Config struct {
	// Budget is the maximum number of concurrently running builds (the
	// paper's "based on the number of available resources"). <= 0 means 4.
	Budget int
	// PreemptionGrace, if > 0, prevents aborting a build that has been
	// running longer than this (§10 "Build Preemption" future work).
	PreemptionGrace time.Duration
	// Events, when non-nil, receives build lifecycle events (starts,
	// finishes, aborts, retries) for observability. Decision events are the
	// service's: it emits them once a decision is durable.
	Events *events.Bus
	// Reliability, when non-nil, provides flaky-failure handling (DESIGN.md
	// §4g): its retry budget is refreshed each epoch, and before a failed
	// decisive build rejects its change, suspect failures earn one
	// verification re-run of the same request (same snapshot, same steps).
	Reliability *reliability.Reliability
	// Committer, when non-nil, owns head advancement: decide proposes
	// commit-ready changes instead of calling repo.CommitPatch directly. The
	// shard runtime points its engine at the commit arbiter.
	Committer Committer
	// Sched, when non-nil, enables priority-lane scheduling (DESIGN.md §4l):
	// each pending change's class/deadline weight multiplies its value in
	// the speculation request, the P0 lane is exempt from the engine's
	// SkipThreshold gating, and a pending hotfix overrides PreemptionGrace
	// for non-hotfix running builds. Nil planners behave exactly as before
	// the sched layer existed.
	Sched *sched.Policy
}

// trackedBuild is a build the planner started, with enough context to
// recompute its dynamic key at any time.
type trackedBuild struct {
	build     speculation.Build
	baseLen   int            // repo mainline length when the build started (Eq. 6 check)
	task      *buildsys.Task // nil once finished
	result    buildsys.Result
	startedAt time.Time
	// req is the controller request, kept so a suspect failure can be
	// verified by re-running the identical build (zero for synthetic
	// merge-failure results). verified marks that the one verification
	// re-run has been spent.
	req      buildsys.Request
	verified bool
	// armed marks a build whose end wakes the engine: it was started as, or
	// a resolution has since made it, the build that decides its subject.
	armed bool

	// Cached dynamic key, valid while keyedAt matches the planner's
	// keyEpoch. Resolutions (commit/reject) are the only events that change
	// a build's key, so the cache is invalidated by bumping the epoch there
	// instead of rebuilding every key on every decide/reconcile pass.
	key     string
	keyedAt uint64
}

// Planner orchestrates pending changes to commit or rejection. It starts no
// goroutine of its own: the shard runtime's loop drives it by calling Tick,
// which must not be called concurrently with itself; all other methods are
// safe to call from any goroutine.
//
// The planner owns its engine's wake channel (Wake). These poke it: the
// coordinator handing the engine changes (Poke), the end of a build that can
// decide its subject now — one started with no assumptions, or one a
// resolution has since left with none — and, with Config.Sched, a deadline
// aging a weight. A speculative build's end or merge failure wakes it only
// when no running build would (end of Tick): replanning on each partial
// completion would act on half a batch of results that finish together.
type Planner struct {
	repo       *repo.Repo
	queue      *queue.Queue
	analyzer   ConflictSource
	spec       *speculation.Engine
	controller *buildsys.Controller
	cfg        Config

	// prep is the shared-prefix preparation trie. Only the Tick goroutine
	// touches it (Tick must not be called concurrently with itself).
	prep *prepCache

	// wake is the engine's coalescing wake channel (buffered 1). aging,
	// created by the first tick that needs it and guarded by mu, pokes it
	// when a printed sched weight can move.
	wake  chan struct{}
	aging clock.Timer

	// Tick-goroutine scratch, kept so a tick with nothing to do allocates
	// nothing: the pending order and the plan-input fingerprint bytes.
	pendingBuf []*change.Change
	fpBuf      []byte

	mu           sync.Mutex
	running      []*trackedBuild
	finished     []*trackedBuild
	committedSet map[change.ID]bool
	rejected     map[change.ID]string // reason
	outcomes     []Outcome            // decided since the last DrainOutcomes
	stats        Stats

	// keyEpoch versions the per-build dynamic-key caches; resolve bumps it.
	keyEpoch uint64
	// lastPlanFP memoizes the plan-input fingerprint of the last epoch that
	// ran decide+Plan+reconcile; an identical fingerprint lets Tick skip
	// both entirely.
	lastPlanFP []byte
	havePlanFP bool
}

// New creates a Planner over the repository.
func New(r *repo.Repo, q *queue.Queue, an ConflictSource, spec *speculation.Engine, ctrl *buildsys.Controller, cfg Config) *Planner {
	if cfg.Budget <= 0 {
		cfg.Budget = 4
	}
	return &Planner{
		repo:         r,
		queue:        q,
		analyzer:     an,
		spec:         spec,
		controller:   ctrl,
		cfg:          cfg,
		committedSet: map[change.ID]bool{},
		rejected:     map[change.ID]string{},
		keyEpoch:     1,
		wake:         make(chan struct{}, 1),
	}
}

// Wake returns the engine's wake channel. The loop that drives the planner
// waits on it between ticks; each receive means there may be work to do.
func (p *Planner) Wake() <-chan struct{} { return p.wake }

// Poke wakes the engine without blocking; pokes that arrive before the loop
// next waits coalesce into one tick.
func (p *Planner) Poke() { buildsys.Poke(p.wake) }

// Stats returns a copy of the planner's work counters.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// count applies f to the stats under the planner mutex.
func (p *Planner) count(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// DrainOutcomes appends the dispositions decided since the last drain to dst,
// in decision order, and forgets them. The shard coordinator drains the
// engine each partition epoch and hands the decisions to the service's
// publisher; a drain with nothing decided appends nothing and allocates
// nothing.
func (p *Planner) DrainOutcomes(dst []Outcome) []Outcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	dst = append(dst, p.outcomes...)
	clear(p.outcomes)
	p.outcomes = p.outcomes[:0]
	return dst
}

// dynamicKey identifies a build by the changes it merged that have not
// committed yet, in apply order, plus its rejection assumptions that have
// not been confirmed: "c1+c2!r1,r2". It names no base, so a build keeps its
// key while the head moves under it, and the key of a build that decides its
// subject now is the subject's ID alone. An assumed rejection drops out only
// when the change is rejected; one that committed instead stays, so a
// falsified build never takes a valid build's key. Callers hold p.mu.
func (p *Planner) dynamicKey(b speculation.Build) string {
	var sb strings.Builder
	for _, id := range b.Changes {
		if p.committedSet[id] {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte('+')
		}
		sb.WriteString(string(id))
	}
	sep := byte('!')
	for _, id := range b.AssumedRejected {
		if _, wasRejected := p.rejected[id]; wasRejected {
			continue
		}
		sb.WriteByte(sep)
		sb.WriteString(string(id))
		sep = ','
	}
	return sb.String()
}

// buildKeyLocked returns the build's dynamic key, recomputing it only when a
// resolution has bumped the key epoch since it was last cached. Callers hold
// p.mu.
func (p *Planner) buildKeyLocked(rb *trackedBuild) string {
	if rb.keyedAt == p.keyEpoch {
		p.stats.KeysCached++
		return rb.key
	}
	rb.key = p.dynamicKey(rb.build)
	rb.keyedAt = p.keyEpoch
	p.stats.KeysComputed++
	return rb.key
}

// planFingerprintLocked appends to dst every input decide/Plan/reconcile
// depend on: the head commit, the budget, the pending IDs in submission
// order, and the dynamic keys of running and finished builds in slice order.
// Tick keeps the bytes between calls, so an unchanged fingerprint costs no
// allocation. Change
// features that feed speculation (Spec success counters) change only when a
// build is reaped, which changes the finished set, so they are covered
// transitively. A build's verified flag is part of its key: a failed build
// that already spent its verification re-run decides differently (reject)
// than the same key before verification (re-run), and without the marker
// the post-verification state would fingerprint identically to the
// pre-verification epoch and decide would be skipped forever. With
// Config.Sched it also returns the next instant a printed weight can move
// (zero if none can). Callers hold p.mu.
func (p *Planner) planFingerprintLocked(dst []byte, pending []*change.Change) (_ []byte, next time.Time) {
	dst = append(dst, p.repo.Head().ID...)
	dst = append(dst, "|b"...)
	dst = strconv.AppendInt(dst, int64(p.cfg.Budget), 10)
	dst = append(dst, "|p:"...)
	for _, c := range pending {
		dst = append(dst, c.ID...)
		dst = append(dst, ',')
	}
	if p.cfg.Sched != nil {
		// Deadline urgency moves with the clock, so a quantized weight per
		// non-default change must be part of the fingerprint — otherwise an
		// aging P2's rising weight would be memoized away and its plan never
		// recomputed. One decimal of quantization bounds replan churn; a
		// printed weight moves when it reaches its next half-tenth.
		dst = append(dst, "|s:"...)
		now := p.now()
		for _, c := range pending {
			w := p.cfg.Sched.Weight(c.Class, c.Deadline, now)
			if c.Class == change.ClassNormal && c.Deadline.IsZero() {
				dst = append(dst, '.')
			} else {
				dst = strconv.AppendInt(dst, int64(c.Class), 10)
				dst = append(dst, ':')
				dst = strconv.AppendFloat(dst, w, 'f', 1, 64)
			}
			dst = append(dst, ',')
			at := p.cfg.Sched.ReachesAt(c.Class, c.Deadline, (math.Floor(w*10-0.5)+1.5)/10)
			if !at.IsZero() && (next.IsZero() || at.Before(next)) {
				next = at
			}
		}
	}
	dst = append(dst, "|r:"...)
	for _, rb := range p.running {
		dst = append(dst, p.buildKeyLocked(rb)...)
		if rb.verified {
			dst = append(dst, '!')
		}
		dst = append(dst, ';')
	}
	dst = append(dst, "|f:"...)
	for _, fb := range p.finished {
		dst = append(dst, p.buildKeyLocked(fb)...)
		if fb.verified {
			dst = append(dst, '!')
		}
		dst = append(dst, ';')
	}
	return dst, next
}

// armAgingLocked sets the aging timer to poke the engine a millisecond after
// next on the planner's clock, when the weight has surely crossed, or stops
// it if next is zero. Callers hold p.mu.
func (p *Planner) armAgingLocked(next time.Time) {
	switch {
	case next.IsZero():
		if p.aging != nil {
			p.aging.Stop()
		}
	case p.aging == nil:
		p.aging = p.controller.Clock().AfterFunc(next.Sub(p.now())+time.Millisecond, p.Poke)
	default:
		p.aging.Reset(next.Sub(p.now()) + time.Millisecond)
	}
}

// now reads the planner's clock, which is its build controller's: the
// engine stamps and weighs on the clock its builds are timed by.
func (p *Planner) now() time.Time { return p.controller.Clock().Now() }

// StopAging stops the aging timer until the next tick, so a planner whose
// loop has ended is not kept reachable by it.
func (p *Planner) StopAging() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armAgingLocked(time.Time{})
}

// pruneFinishedLocked garbage-collects finished builds that can never again
// match a plan: the subject is resolved (or gone from the queue), a change
// the build merged in was rejected, or a change it assumed rejected has
// committed. Without this, p.finished grows without bound over a long run.
// Builds whose assumed predecessors *committed* are kept — once they all
// have, the build's key is its subject's ID alone, the key of the build that
// decides it: exactly the reuse the speculation tree exists for. Callers
// hold p.mu.
func (p *Planner) pruneFinishedLocked() {
	kept := p.finished[:0]
	for _, fb := range p.finished {
		if p.staleFinishedLocked(fb) {
			p.stats.FinishedPruned++
			continue
		}
		kept = append(kept, fb)
	}
	for i := len(kept); i < len(p.finished); i++ {
		p.finished[i] = nil
	}
	p.finished = kept
}

// staleFinishedLocked reports whether a build's result can never again be
// used: the subject is resolved or withdrawn, an assumed-committed change was
// rejected, or an assumed-rejected change committed. It applies equally to
// running builds — the same contradictions make an in-flight build's outcome
// unusable. Callers hold p.mu.
func (p *Planner) staleFinishedLocked(fb *trackedBuild) bool {
	subject := fb.build.Subject
	if p.committedSet[subject] {
		return true
	}
	if _, rejected := p.rejected[subject]; rejected {
		return true
	}
	if !p.queue.Contains(subject) {
		return true // withdrawn without a decision
	}
	for _, id := range fb.build.Assumed {
		if _, rejected := p.rejected[id]; rejected {
			return true // built on a rejected predecessor's patch
		}
	}
	for _, id := range fb.build.AssumedRejected {
		if p.committedSet[id] {
			return true // assumed a rejection that did not happen
		}
	}
	return false
}

// obsoleteLocked is the §4j obsolescence predicate for a running build: its
// success can no longer affect any commit decision. Either a resolution
// contradicted its assumptions (staleFinishedLocked), or it is dominated — a
// finished build with the same dynamic key already holds the result it is
// still computing. finishedKeys, when non-nil, is the caller's precomputed
// finished-key set; otherwise the finished list is scanned. Callers hold p.mu.
func (p *Planner) obsoleteLocked(rb *trackedBuild, finishedKeys map[string]bool) bool {
	if p.staleFinishedLocked(rb) {
		return true
	}
	key := p.buildKeyLocked(rb)
	if finishedKeys != nil {
		return finishedKeys[key]
	}
	for _, fb := range p.finished {
		if p.buildKeyLocked(fb) == key {
			return true
		}
	}
	return false
}

// cancelRunningLocked cancels a build the planner is dropping and publishes
// the abort together with the compute it throws away (the task's executed
// step-unit wall time so far). Callers hold p.mu and remove the build from
// p.running themselves.
func (p *Planner) cancelRunningLocked(rb *trackedBuild, why string) {
	wasted := rb.task.Executed()
	rb.task.WakeOnDone(nil) // a cancelled build decides nothing
	rb.task.Cancel()
	if p.cfg.Events != nil {
		p.cfg.Events.Publish(events.Event{
			Type: events.TypeBuildAborted, Change: rb.build.Subject, Build: rb.build.Key(),
			Detail: fmt.Sprintf("%s; %v executed wasted", why, wasted),
		})
	}
}

// pruneRunningLocked eagerly aborts running builds the obsolescence predicate
// condemns. It runs on every resolution, so a contradicted speculation build
// stops burning workers the moment the contradiction lands instead of running
// until the next reconcile drops it (or, under PreemptionGrace, to
// completion). Obsolescence deliberately ignores the grace window: grace
// exists to damp re-planning churn, and a build whose assumptions are
// contradicted can never be useful no matter how nearly done it is. Callers
// hold p.mu.
func (p *Planner) pruneRunningLocked() {
	kept := p.running[:0]
	for _, rb := range p.running {
		if !p.obsoleteLocked(rb, nil) {
			kept = append(kept, rb)
			continue
		}
		p.stats.ObsoleteAborted++
		p.cancelRunningLocked(rb, "obsolete after resolution")
	}
	for i := len(kept); i < len(p.running); i++ {
		p.running[i] = nil
	}
	p.running = kept
}

// Tick runs one epoch: reap finished builds, decide commits/rejections,
// re-plan, and reconcile running builds with the plan. It returns true if
// any state changed (useful for quiescence detection).
//
// When the plan-input fingerprint (head, pending, running/finished keys,
// budget) is unchanged since the last fully-planned epoch, decide and
// reconcile are provably no-ops — every decision and scheduling choice is a
// function of exactly those inputs, and the only time-dependent choice
// (keeping an over-grace build) is monotone — so Tick skips them entirely.
// This is what makes the shard runtime's epoch loop cheap on idle epochs.
func (p *Planner) Tick(ctx context.Context) (bool, error) {
	if p.cfg.Reliability != nil {
		p.cfg.Reliability.BeginEpoch()
	}
	progress := p.reap()
	p.pendingBuf = p.queue.AppendPending(p.pendingBuf[:0])
	p.mu.Lock()
	var next time.Time
	p.fpBuf, next = p.planFingerprintLocked(p.fpBuf[:0], p.pendingBuf)
	p.armAgingLocked(next)
	clear(p.pendingBuf) // hold no change past the tick
	if p.havePlanFP && bytes.Equal(p.fpBuf, p.lastPlanFP) {
		p.stats.PlansSkipped++
		p.mu.Unlock()
		return progress, nil
	}
	p.stats.PlansComputed++
	p.lastPlanFP, p.fpBuf = p.fpBuf, p.lastPlanFP
	p.havePlanFP = true
	p.mu.Unlock()
	var cg *conflict.Graph
	for {
		n, g, err := p.decide(ctx)
		if err != nil {
			return progress, err
		}
		cg = g
		if n == 0 {
			break
		}
		progress = true
	}
	started, err := p.reconcile(ctx, cg)
	if err != nil {
		return progress, err
	}
	p.mu.Lock()
	switch { // while work remains, something must wake the engine again
	case slices.ContainsFunc(p.running, func(rb *trackedBuild) bool { return rb.armed }):
	case len(p.running) > 0:
		p.armLocked(true) // a preemption grace or sched weights kept only speculative ones
	case p.queue.Len() > 0:
		p.Poke() // replan on speculative merge failures; skipped if nothing moved
	}
	p.mu.Unlock()
	return progress || started, nil
}

// armLocked makes the end of every running build that decides its subject
// now — its key is the subject's ID alone, whatever its base — or, with all,
// of every running build wake the engine; a build that has already ended
// wakes it at once. A decisive build at an older base stays armed while the
// head moves under it: the Eq. 6 check, not the history length, judges its
// result when it decides. Callers hold p.mu.
func (p *Planner) armLocked(all bool) {
	for _, rb := range p.running {
		if !rb.armed && (all || p.buildKeyLocked(rb) == string(rb.build.Subject)) {
			rb.armed = true
			rb.task.WakeOnDone(p.wake)
		}
	}
}

// reap moves completed tasks from running to finished, filtering running in
// place.
func (p *Planner) reap() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	progress := false
	still := p.running[:0]
	for _, rb := range p.running {
		select {
		case <-rb.task.Done():
			res := rb.task.Result()
			progress = true
			if errors.Is(res.Err, buildsys.ErrAborted) {
				if p.cfg.Events != nil {
					p.cfg.Events.Publish(events.Event{
						Type: events.TypeBuildAborted, Change: rb.build.Subject, Build: rb.build.Key(),
						Detail: fmt.Sprintf("%v executed wasted", res.Executed),
					})
				}
				continue // dropped entirely
			}
			if p.cfg.Events != nil {
				detail := "ok"
				if !res.OK {
					detail = "failed: " + res.FailedStep
					if res.FailedTarget != "" {
						detail += " @ " + res.FailedTarget
					}
				}
				p.cfg.Events.Publish(events.Event{
					Type: events.TypeBuildFinished, Change: rb.build.Subject,
					Build: rb.build.Key(), Detail: detail,
				})
			}
			rb.result = res
			rb.task = nil
			p.finished = append(p.finished, rb)
			// Dynamic speculation features (§7.2). Atomic: change structs
			// are read concurrently by the analyzer/predictor fan-out.
			if c, err := p.queue.Get(rb.build.Subject); err == nil {
				c.Spec.RecordOutcome(res.OK)
			}
		default:
			still = append(still, rb)
		}
	}
	clear(p.running[len(still):])
	p.running = still
	return progress
}

// decide commits or rejects every change whose fate is determined, in
// submission order. Returns the number of decisions made and the conflict
// graph it planned over, so reconcile can reuse it when no decision (and no
// head movement) intervened. A suspect failed decisive build is re-run once
// for verification instead of rejecting (counted as a decision so the Tick
// loop and plan fingerprint observe the state change).
func (p *Planner) decide(ctx context.Context) (int, *conflict.Graph, error) {
	pending := p.queue.Pending()
	if len(pending) == 0 {
		return 0, nil, nil
	}
	cg, failed := p.analyzer.BuildGraph(pending)
	// Changes that no longer apply to head are rejected outright (merge
	// conflict with committed work), in a stable order so outcome logs and
	// event streams replay identically.
	var rejects []*change.Change
	for _, c := range pending {
		if _, ok := failed[c.ID]; ok {
			rejects = append(rejects, c)
		}
	}
	if len(rejects) > 0 {
		sort.Slice(rejects, func(i, j int) bool { return rejects[i].ID < rejects[j].ID })
		for _, c := range rejects {
			p.resolve(c, change.StateRejected, fmt.Sprintf("patch no longer applies: %v", failed[c.ID]), "")
		}
		return len(rejects), cg, nil
	}
	decisions := 0
	for _, c := range pending {
		// All conflicting predecessors must be resolved; with the graph
		// computed over pending only, any predecessor still pending blocks.
		if cg.HasConflictingPredecessor(c.ID) {
			continue
		}
		// The build that decides c has merged every change it needs that
		// has not committed, so its key is c's ID alone.
		p.mu.Lock()
		var match *trackedBuild
		for _, fb := range p.finished {
			if p.buildKeyLocked(fb) == string(c.ID) {
				match = fb
				break
			}
		}
		p.mu.Unlock()
		if match == nil {
			continue
		}
		prop := CommitProposal{
			Change:  c,
			BaseLen: match.baseLen,
			Applied: match.build.Changes,
			Targets: targetNames(match.req.Targets),
			Paths:   c.Patch.Paths(),
			Now:     p.now(),
		}
		res := match.result
		if !res.OK {
			if err := p.check(prop); err != nil {
				// A commit since the build's base touches its footprint, so
				// the failure may not be c's: rebuild, do not reject.
				p.dropFinished(match, err)
				decisions++
				continue
			}
			if p.verifySuspect(ctx, match) {
				decisions++
				continue
			}
			reason := fmt.Sprintf("build failed at %s", res.FailedStep)
			if res.FailedTarget != "" {
				reason = fmt.Sprintf("build failed at %s (target %s)", res.FailedStep, res.FailedTarget)
			}
			if res.Err != nil {
				reason = fmt.Sprintf("%s: %v", reason, res.Err)
			}
			p.resolve(c, change.StateRejected, reason, "")
			decisions++
			continue
		}
		commit, err := p.commit(prop)
		if err != nil {
			if errors.Is(err, repo.ErrStaleHead) {
				continue // concurrent commit; retry next tick
			}
			if errors.Is(err, ErrCrossShardConflict) {
				// A commit since the decisive build's base conflicts with
				// it. Drop it so reconcile schedules a fresh build against
				// the new head; the change is rebuilt, not rejected.
				p.dropFinished(match, err)
				decisions++
				continue
			}
			p.resolve(c, change.StateRejected, fmt.Sprintf("commit failed: %v", err), "")
			decisions++
			continue
		}
		if match.verified && p.cfg.Reliability != nil {
			p.cfg.Reliability.NoteAverted()
			if p.cfg.Events != nil {
				p.cfg.Events.Publish(events.Event{
					Type: events.TypeRejectionAverted, Change: c.ID, Build: match.build.Key(),
					Detail: "verification re-run passed; flaky failure did not reject",
				})
			}
		}
		p.resolve(c, change.StateCommitted, "", commit.ID)
		decisions++
	}
	return decisions, cg, nil
}

// check reports whether a finished decisive build still speaks for its
// subject: nil when every commit since its base that it did not merge is
// disjoint from its footprint (the Committer's Eq. 6 check), an
// ErrCrossShardConflict otherwise. Without a Committer the planner knows only
// its own commits, so it keeps the conservative form of the rule: every
// commit since the base must be one the build merged. A build's changes were
// all pending when it started, so those of them committed since are exactly
// the merged commits since its base.
func (p *Planner) check(prop CommitProposal) error {
	if p.cfg.Committer != nil {
		return p.cfg.Committer.Check(prop)
	}
	merged := 0
	p.mu.Lock()
	for _, id := range prop.Applied {
		if p.committedSet[id] {
			merged++
		}
	}
	p.mu.Unlock()
	if since := p.repo.Len() - prop.BaseLen; since > merged {
		return fmt.Errorf("%w: %d commits since the base of %s, %d merged", ErrCrossShardConflict, since, prop.Change.ID, merged)
	}
	return nil
}

// commit lands a passed decisive build's subject: through the Committer,
// whose Commit runs the Eq. 6 check first, or, without one, after check
// passes, directly at the head.
func (p *Planner) commit(prop CommitProposal) (*repo.Commit, error) {
	if p.cfg.Committer != nil {
		return p.cfg.Committer.Commit(prop)
	}
	if err := p.check(prop); err != nil {
		return nil, err
	}
	c := prop.Change
	return p.repo.CommitPatch(p.repo.Head().ID, c.Patch, c.Author.Name, c.Description, prop.Now)
}

// verifySuspect grants a failed decisive build one verification re-run when
// its failing step is suspect (known-flaky identity, flaky kind, or
// quarantined kind): the identical request — same snapshot, same steps — is
// restarted and the build moves from finished back to running, so decide
// revisits it when the re-run completes. Synthetic merge failures (empty
// request) and already-verified builds never qualify.
func (p *Planner) verifySuspect(ctx context.Context, fb *trackedBuild) bool {
	rel := p.cfg.Reliability
	if rel == nil || fb.verified || len(fb.req.Steps) == 0 {
		return false
	}
	if !rel.ShouldVerifyBuild(fb.req, fb.result) {
		return false
	}
	detail := "verification re-run of suspect failure: " + fb.result.FailedStep
	if fb.result.FailedTarget != "" {
		detail += " @ " + fb.result.FailedTarget
	}
	fb.verified = true
	fb.req.Wake = p.wake // a verification re-run decides its subject
	fb.armed = true
	task := p.controller.Start(ctx, fb.req)
	p.mu.Lock()
	for i, x := range p.finished {
		if x == fb {
			p.finished = append(p.finished[:i], p.finished[i+1:]...)
			break
		}
	}
	fb.task = task
	fb.result = buildsys.Result{}
	fb.startedAt = p.now()
	p.running = append(p.running, fb)
	p.stats.BuildsStarted++
	p.mu.Unlock()
	if p.cfg.Events != nil {
		p.cfg.Events.Publish(events.Event{
			Type: events.TypeBuildRetried, Change: fb.build.Subject, Build: fb.build.Key(),
			Detail: detail,
		})
	}
	return true
}

// resolve finalizes a change's fate as an Outcome; it never writes the
// change's State/Reason and announces nothing — the service publishes the
// decision once it is durable.
func (p *Planner) resolve(c *change.Change, st change.State, reason string, commit repo.CommitID) {
	if c == nil {
		return
	}
	id := c.ID
	_ = p.queue.Remove(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	if st == change.StateCommitted {
		p.committedSet[id] = true
	} else {
		p.rejected[id] = reason
	}
	p.keyEpoch++ // every resolution can change dynamic keys
	p.pruneFinishedLocked()
	p.pruneRunningLocked()
	p.armLocked(false) // a running build may have no open assumption left
	p.outcomes = append(p.outcomes, Outcome{ID: id, State: st, Reason: reason, Commit: commit, At: p.now()})
}

// dropFinished removes a finished decisive build that no longer speaks for
// its subject, pass or fail: a commit since its base that it did not merge
// touches its footprint (why), so reconcile must schedule a fresh build
// against the new head. The rebuild gets the dropped build's dynamic key
// (keys name no base), so once it finishes the plan fingerprint can equal
// the one this epoch planned under; the memo is cleared so that epoch is not
// skipped and the fresh result gets decided.
func (p *Planner) dropFinished(fb *trackedBuild, why error) {
	p.mu.Lock()
	for i, x := range p.finished {
		if x == fb {
			p.finished = append(p.finished[:i], p.finished[i+1:]...)
			break
		}
	}
	p.stats.CrossShardRebuilds++
	p.havePlanFP = false
	p.mu.Unlock()
	if p.cfg.Events != nil {
		p.cfg.Events.Publish(events.Event{
			Type: events.TypeBuildAborted, Change: fb.build.Subject, Build: fb.build.Key(),
			Detail: fmt.Sprintf("stale at decision (%v); rebuilding against new head", why),
		})
	}
}

// targetNames returns the sorted target names of a build request's delta.
func targetNames(targets map[string]string) []string {
	out := make([]string, 0, len(targets))
	for name := range targets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// reconcile computes the current plan and aligns running builds with it.
// cg, when it covers exactly the current pending set, is reused from decide
// rather than asked for again.
func (p *Planner) reconcile(ctx context.Context, cg *conflict.Graph) (bool, error) {
	pending := p.queue.Pending()
	if len(pending) == 0 {
		p.AbortAll("queue drained")
		return false, nil
	}
	if cg == nil || !graphCovers(cg, pending) {
		cg, _ = p.analyzer.BuildGraph(pending)
	}
	var weights []float64
	var noSkip []bool
	if p.cfg.Sched != nil {
		weights, noSkip = p.cfg.Sched.Weights(pending, p.now())
	}
	plan := p.spec.Plan(speculation.Request{
		Pending:   pending,
		Conflicts: cg,
		Budget:    p.cfg.Budget,
		Weights:   weights,
		NoSkip:    noSkip,
	})

	p.mu.Lock()
	doneKeys := map[string]bool{}
	for _, fb := range p.finished {
		doneKeys[p.buildKeyLocked(fb)] = true
	}
	runningKeys := map[string]*trackedBuild{}
	for _, rb := range p.running {
		runningKeys[p.buildKeyLocked(rb)] = rb
	}
	desired := map[string]speculation.Build{}
	for _, b := range plan.Builds {
		if len(desired) >= p.cfg.Budget {
			break
		}
		key := p.dynamicKey(b)
		if doneKeys[key] {
			continue // result already available; no need to build
		}
		desired[key] = b
	}
	p.stats.SpecBranchesSkipped += plan.BranchesSkipped
	p.stats.SpecBuildsSkipped += plan.BuildsSkipped
	// Abort running builds not desired (honoring the preemption grace —
	// except for obsolete builds, whose contradicted assumptions make them
	// worthless no matter how nearly done they are). A pending hotfix
	// overrides the grace for non-hotfix builds: the P0 lane needs the
	// capacity now, and a nearly-done build for a preempted plan is worth
	// less than hotfix turnaround (DESIGN.md §4l).
	hotfixPressure := false
	classOf := map[change.ID]change.Class{}
	if p.cfg.Sched != nil {
		for _, c := range pending {
			classOf[c.ID] = c.Class
			if c.Class == change.ClassHotfix {
				hotfixPressure = true
			}
		}
	}
	now := p.now()
	var keep []*trackedBuild
	for _, rb := range p.running { // slice order, not map order: keep is the new p.running
		key := p.buildKeyLocked(rb)
		if _, want := desired[key]; want {
			keep = append(keep, rb)
			continue
		}
		obsolete := p.obsoleteLocked(rb, doneKeys)
		if !obsolete && p.cfg.PreemptionGrace > 0 && now.Sub(rb.startedAt) >= p.cfg.PreemptionGrace {
			if hotfixPressure && classOf[rb.build.Subject] != change.ClassHotfix {
				p.stats.HotfixPreempted++
				p.cancelRunningLocked(rb, "preempted by hotfix lane")
				continue
			}
			keep = append(keep, rb) // nearly done; let it finish (§10)
			continue
		}
		if obsolete {
			p.stats.ObsoleteAborted++
			p.cancelRunningLocked(rb, "obsolete")
			continue
		}
		p.cancelRunningLocked(rb, "dropped from plan")
	}
	p.running = keep
	// Builds to start, in plan priority order.
	var toStart []speculation.Build
	for _, b := range plan.Builds {
		key := p.dynamicKey(b)
		if _, want := desired[key]; !want {
			continue
		}
		if _, already := runningKeys[key]; already {
			continue
		}
		toStart = append(toStart, b)
	}
	slots := p.cfg.Budget - len(p.running)
	p.mu.Unlock()

	started := false
	for _, b := range toStart {
		if slots <= 0 {
			break
		}
		if err := p.startBuild(ctx, b); err != nil {
			return started, err
		}
		slots--
		started = true
	}
	return started, nil
}

// graphCovers reports whether the conflict graph's vertex set is exactly the
// pending changes, in order. Any decision or queue churn between decide and
// reconcile breaks the match and forces a fresh (incremental) BuildGraph.
func graphCovers(cg *conflict.Graph, pending []*change.Change) bool {
	if cg.Len() != len(pending) {
		return false
	}
	for i, c := range pending {
		if cg.At(i) != c.ID {
			return false
		}
	}
	return true
}

// startBuild merges the build's patches (through the shared-prefix
// preparation trie), computes affected targets and the minimal-build-step
// sets, and launches the controller task.
func (p *Planner) startBuild(ctx context.Context, b speculation.Build) error {
	// b is cut from the speculation engine's scratch memory, which the next
	// Plan call overwrites; the trackedBuild stored below outlives that.
	b = cloneBuild(b)
	head := p.repo.Head()
	var patches []repo.Patch
	var subject *change.Change
	for _, id := range b.Changes {
		c, err := p.queue.Get(id)
		if err != nil {
			return nil // pending set changed under us; replan next tick
		}
		patches = append(patches, c.Patch)
		subject = c
	}
	prep, err := p.prepare(head, b.Changes, patches)
	if err != nil {
		return err
	}
	if prep.failure != "" {
		// The merge (or its graph) fails: record as a failed build so
		// decide() can reject the subject when its turn comes.
		p.recordImmediateFailure(b, head, prep.failure)
		return nil
	}

	targets := map[string]string{}
	for name, h := range prep.delta {
		if h == buildgraph.DeletedHash {
			continue
		}
		targets[name] = h
	}

	req := buildsys.Request{
		Key:          b.Key(),
		Snapshot:     prep.snap,
		Steps:        subject.BuildSteps,
		Targets:      targets,
		PriorTargets: prep.prior,
	}
	decisive := len(b.Assumed) == 0 && len(b.AssumedRejected) == 0
	if decisive {
		req.Wake = p.wake
	}
	task := p.controller.Start(ctx, req)
	p.mu.Lock()
	p.stats.BuildsStarted++
	p.running = append(p.running, &trackedBuild{
		build:     b,
		baseLen:   head.Seq + 1,
		task:      task,
		startedAt: p.now(),
		req:       req,
		armed:     decisive,
	})
	p.mu.Unlock()
	if p.cfg.Events != nil {
		p.cfg.Events.Publish(events.Event{
			Type: events.TypeBuildStarted, Change: b.Subject, Build: b.Key(),
		})
	}
	return nil
}

// cloneBuild returns a copy of b that shares no slice with it.
func cloneBuild(b speculation.Build) speculation.Build {
	b.Assumed = slices.Clone(b.Assumed)
	b.AssumedRejected = slices.Clone(b.AssumedRejected)
	b.Changes = slices.Clone(b.Changes)
	b.AssumedIdx = slices.Clone(b.AssumedIdx)
	b.AssumedRejectedIdx = slices.Clone(b.AssumedRejectedIdx)
	return b
}

// recordImmediateFailure registers a synthetic failed result for builds that
// cannot even start (merge or graph errors). Like a build's end, it wakes the
// engine only if it decides its subject; the tick that recorded it has planned.
func (p *Planner) recordImmediateFailure(b speculation.Build, head *repo.Commit, reason string) {
	p.mu.Lock()
	p.finished = append(p.finished, &trackedBuild{
		build:   b,
		baseLen: head.Seq + 1,
		result:  buildsys.Result{Key: b.Key(), OK: false, Err: errors.New(reason), FailedStep: "merge"},
	})
	p.mu.Unlock()
	if len(b.Assumed) == 0 && len(b.AssumedRejected) == 0 {
		p.Poke()
	}
}

// AbortAll cancels every running build. Tick calls it when the queue is
// empty and the shard runtime when its loop stops: either way no build can
// still decide anything, so no grace window applies.
func (p *Planner) AbortAll(why string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rb := range p.running {
		p.cancelRunningLocked(rb, why)
	}
	p.running = nil
}
