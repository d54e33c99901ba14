// Package core is the public facade of SubmitQueue: the change-management
// service of §3 that guarantees an always-green mainline by providing the
// illusion of a single queue where every change performs all its build steps
// and is merged into the mainline's most recent HEAD only if they all
// succeed.
//
// A Service owns the monorepo, the intake queue, the conflict analyzer, the
// shard runtime (one planner engine with its speculation engine and a
// pluggable probability model), the commit arbiter, and the build
// controller. Drive it either synchronously (Submit then ProcessAll, as the
// examples do) or as a daemon (Start/Stop with a background event loop);
// api.Stack runs it as the daemon cmd/sqd serves.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mastergreen/internal/arbiter"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/clock"
	"mastergreen/internal/conflict"
	"mastergreen/internal/events"
	"mastergreen/internal/metrics"
	"mastergreen/internal/planner"
	"mastergreen/internal/predict"
	"mastergreen/internal/queue"
	"mastergreen/internal/reliability"
	"mastergreen/internal/repo"
	"mastergreen/internal/sched"
	"mastergreen/internal/shard"
	"mastergreen/internal/speculation"
	"mastergreen/internal/store"
)

// Config tunes a Service.
type Config struct {
	// Workers is the number of builds that may run concurrently (<=0: 4).
	Workers int
	// Predictor supplies P_succ/P_conf. Nil defaults to a mildly optimistic
	// static predictor (P_succ 0.85, P_conf 0.05), which is what sqd runs:
	// it has no way to load a trained model.
	Predictor predict.Predictor
	// Runner executes build steps. Nil defaults to always-succeed, which is
	// useful when the repository's own structure (merge conflicts, target
	// graph errors) is the only failure source under study.
	Runner buildsys.StepRunner
	// Epoch is read by nothing: the loop runs only on events. It stays
	// only because bench/build_bound.go still sets it.
	Epoch time.Duration
	// PreemptionGrace: builds running at least this long are not aborted.
	PreemptionGrace time.Duration
	// Clock is the service's one clock (nil: clock.Wall); every layer reads
	// it (DESIGN.md §4m).
	Clock clock.Clock
	// Events, when non-nil, receives lifecycle events for observability
	// (submissions, build starts/finishes/aborts, commits, rejections).
	Events *events.Bus
	// Reliability tunes the flaky-failure handling layer (retries, flake
	// detection, quarantine, verification re-runs; DESIGN.md §4g). The zero
	// value enables the default policy.
	Reliability reliability.Config
	// FaultInjector, when non-nil, wraps Runner with deterministic fault
	// injection (tests and chaos experiments); its inner runner is set to
	// Config.Runner and its counters surface through ReliabilityStats.
	FaultInjector *reliability.Injector
	// Shards is read by nothing: the service runs one planner engine. It
	// stays only because bench/ still sets it; ROADMAP item 1 deletes it.
	Shards int
	// Sched, when non-nil, enables the priority-lane scheduling layer
	// (DESIGN.md §4l): per-class value weights, deadline aging, hotfix
	// preemption, and per-class turnaround tracking. Nil keeps the
	// unprioritized behavior bit-for-bit.
	Sched *sched.Policy
}

// Service is a running SubmitQueue instance.
type Service struct {
	repo     *repo.Repo
	queue    *queue.Queue
	analyzer *conflict.Analyzer
	runtime  *shard.Runtime
	arb      *arbiter.Arbiter
	ctrl     *buildsys.Controller
	rel      *reliability.Reliability
	cfg      Config

	// mu guards known, log, grew and the loop's handles. Only decideLocked
	// writes a decision (publish and OpenRecovered call it); readers copy.
	mu       sync.Mutex
	known    map[change.ID]entry // every accepted change
	log      []planner.Outcome   // published decisions; seq n is log[n-1]
	grew     chan struct{}       // closed and replaced each time publish grows log
	cancel   context.CancelFunc
	loopDone chan struct{}
	// pubMu makes publish the one writer whichever goroutine runs it: the
	// daemon's publisher, or Tick, ProcessAll and Stop at their end.
	pubMu sync.Mutex

	// Durability (optional): journal records submissions and rejections;
	// the arbiter buffers commit records in it. Nil without one.
	journal atomic.Pointer[store.Journal]

	// tracker accumulates per-class queue depths and turnaround times for
	// the status endpoint and dashboard (nil when Config.Sched is nil).
	tracker *sched.Tracker
}

// entry is what the service keeps of an accepted change: the change itself
// while it is pending, then only its decision's seq in the log.
type entry struct {
	pending *change.Change // nil once decided
	seq     int            // the decision is log[seq-1]; 0 while pending
}

// NewService creates a SubmitQueue over the repository.
func NewService(r *repo.Repo, cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Predictor == nil {
		cfg.Predictor = predict.Static{Success: 0.85, Conflict: 0.05}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall //lint:ignore wallclock a live service with no injected clock runs on the wall
	}
	q := queue.New(1)
	an := conflict.New(r)
	if cfg.Events != nil {
		an.SetEvents(cfg.Events)
		cfg.Events.SetClock(cfg.Clock)
	}
	relCfg := cfg.Reliability
	if relCfg.Events == nil {
		relCfg.Events = cfg.Events
	}
	rel := reliability.New(relCfg)
	runner := cfg.Runner
	if cfg.FaultInjector != nil {
		cfg.FaultInjector.SetInner(runner)
		cfg.FaultInjector.SetClock(cfg.Clock)
		runner = cfg.FaultInjector
		rel.SetInjector(cfg.FaultInjector)
	}
	runner = rel.Wrap(runner)
	ctrl := buildsys.NewController(cfg.Workers, runner)
	ctrl.SetClock(cfg.Clock) // the planner engine reads it too
	arb := arbiter.New(r, arbiter.Config{Analyzer: an, Events: cfg.Events})
	s := &Service{
		repo:     r,
		queue:    q,
		analyzer: an,
		runtime: shard.New(r, q, an, arb, ctrl, shard.Config{
			Planner: planner.Config{
				Budget:          cfg.Workers,
				PreemptionGrace: cfg.PreemptionGrace,
				Events:          cfg.Events,
				Reliability:     rel,
				Sched:           cfg.Sched,
			},
			Spec: func() *speculation.Engine { return speculation.New(cfg.Predictor) },
		}),
		arb:   arb,
		ctrl:  ctrl,
		rel:   rel,
		cfg:   cfg,
		known: map[change.ID]entry{},
		grew:  make(chan struct{}),
	}
	if cfg.Sched != nil {
		s.tracker = sched.NewTracker()
	}
	return s
}

// Clock returns the service's clock (Config.Clock).
func (s *Service) Clock() clock.Clock { return s.cfg.Clock }

// Repo exposes the managed repository (read-only use expected).
func (s *Service) Repo() *repo.Repo { return s.repo }

// Submit enqueues a change (step 5 of the development life cycle, Fig. 3).
// An ID the service already knows — pending, decided or recovered from the
// journal — is refused with an error wrapping queue.ErrDuplicate: builds and
// decisions are keyed by change ID, so a second change under a decided ID
// could never be decided soundly.
func (s *Service) Submit(c *change.Change) error {
	return s.submitLocked(c, true)
}

// submitLocked enqueues a change, journaling it when journalIt is set
// (recovery re-submissions skip journaling: they are already recorded).
func (s *Service) submitLocked(c *change.Change, journalIt bool) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.mu.Lock()
	if e, ok := s.known[c.ID]; ok {
		s.mu.Unlock()
		return fmt.Errorf("core: change %s already submitted (%s): %w", c.ID, s.stateLocked(c.ID, e).State, queue.ErrDuplicate)
	}
	if c.SubmittedAt.IsZero() {
		c.SubmittedAt = s.cfg.Clock.Now()
	}
	if c.BaseCommit == "" {
		c.BaseCommit = s.repo.Head().ID
	}
	if err := s.queue.Enqueue(c); err != nil {
		s.mu.Unlock()
		return err
	}
	s.known[c.ID] = entry{pending: c}
	if s.tracker != nil {
		s.tracker.NoteSubmit(c)
	}
	s.mu.Unlock()
	s.runtime.Poke() // the coordinator adopts the change now, not at a later event
	if s.cfg.Events != nil {
		s.cfg.Events.Publish(events.Event{Type: events.TypeSubmitted, Change: c.ID, Detail: c.Description})
	}
	if j := s.journal.Load(); journalIt && j != nil {
		if err := j.AppendSubmit(c); err != nil {
			// The change stays enqueued, but a failed journal lands no commit.
			return fmt.Errorf("core: change %s enqueued but not journaled: %w", c.ID, journalErr(err))
		}
	}
	return nil
}

// ErrJournal marks an error of the journal rather than of the request: it
// could not make a record durable, and from then on the service publishes
// no new decision and lands no commit (see Health).
var ErrJournal = errors.New("core: journal")

// State returns the change's published decision, or an outcome in
// StatePending while it has none. A decision recovered by OpenRecovered
// carries its journal record's time as At, not the planner's clock reading
// at the decision. Unknown IDs return an error. Once the
// journal has failed, a change still pending returns with an ErrJournal
// error: its decision can no longer be made durable.
func (s *Service) State(id change.ID) (planner.Outcome, error) {
	s.mu.Lock()
	e, ok := s.known[id]
	o := s.stateLocked(id, e)
	s.mu.Unlock()
	if !ok {
		return planner.Outcome{}, fmt.Errorf("core: unknown change %s", id)
	}
	if e.seq == 0 {
		return o, s.Health()
	}
	return o, nil
}

// stateLocked returns the decision of the change id whose entry is e, or
// an outcome in StatePending. Callers hold s.mu.
func (s *Service) stateLocked(id change.ID, e entry) planner.Outcome {
	if e.seq == 0 {
		return planner.Outcome{ID: id, State: change.StatePending}
	}
	return s.log[e.seq-1]
}

// decideLocked records one decision in memory: it appends o to the log,
// keeps only its seq for the change, and counts it in the sched tracker.
// publish and OpenRecovered are its callers. Callers hold s.mu.
func (s *Service) decideLocked(o planner.Outcome) {
	s.log = append(s.log, o)
	if c := s.known[o.ID].pending; c != nil && s.tracker != nil {
		s.tracker.NoteDecision(c, o.State == change.StateCommitted, o.At)
	}
	s.known[o.ID] = entry{seq: len(s.log)}
}

// Health returns the error that poisoned the journal (ErrJournal), or nil
// while the service can still make its decisions durable.
func (s *Service) Health() error { return journalErr(s.journal.Load().Err()) }

// journalErr wraps a journal's error (nil: nil) in ErrJournal.
func journalErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrJournal, err)
}

// publish is the one writer of decisions. It takes what the runtime merged,
// buffers a journal record for each rejection (the arbiter buffered each
// commit's as it landed), waits once for the journal, and only then records
// the decisions (decideLocked) and emits their committed/rejected events:
// no state, outcome or event names a decision a crash could lose. A failed journal
// publishes nothing more.
func (s *Service) publish() error {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	j := s.journal.Load()
	if err := j.Err(); err != nil {
		return journalErr(err)
	}
	batch := s.runtime.DrainDecided(nil)
	if len(batch) == 0 {
		return nil
	}
	if j != nil {
		for _, o := range batch {
			if o.State != change.StateCommitted {
				j.Buffer(store.Record{Kind: store.KindOutcome, Outcome: &store.OutcomeRecord{
					ID: o.ID, State: o.State.String(), Reason: o.Reason, At: o.At,
				}})
			}
		}
		if err := j.Sync(); err != nil {
			return journalErr(err)
		}
	}
	s.mu.Lock()
	for _, o := range batch {
		s.decideLocked(o)
	}
	close(s.grew) // wake the followers of the log (NextDecision)
	s.grew = make(chan struct{})
	s.mu.Unlock()
	if s.cfg.Events != nil {
		for _, o := range batch {
			ev := events.Event{Type: events.TypeCommitted, Change: o.ID, Detail: string(o.Commit)}
			if o.State == change.StateRejected {
				ev.Type, ev.Detail = events.TypeRejected, o.Reason
			}
			s.cfg.Events.Publish(ev)
		}
	}
	return nil
}

// Tick runs one epoch (for callers managing their own loop) and publishes
// what it decided.
func (s *Service) Tick(ctx context.Context) error {
	_, err := s.runtime.Tick(ctx)
	return errors.Join(err, s.publish())
}

// ProcessAll drives the engine until every submitted change is decided,
// then publishes the decisions. If the context is cancelled first it aborts
// every running build and returns an error wrapping planner.ErrStopped.
func (s *Service) ProcessAll(ctx context.Context) error {
	err := s.runtime.Quiesce(ctx)
	return errors.Join(err, s.publish())
}

// Outcomes returns every published decision, in decision order.
func (s *Service) Outcomes() []planner.Outcome { return s.OutcomesAfter(0, math.MaxInt) }

// OutcomesAfter returns up to limit published decisions after seq after
// (the first decision has seq 1), in decision order, copying only those.
func (s *Service) OutcomesAfter(after, limit int) []planner.Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	after = min(max(after, 0), len(s.log))
	limit = min(max(limit, 0), len(s.log)-after)
	return append([]planner.Outcome(nil), s.log[after:after+limit]...)
}

// NextDecision returns a channel that publish closes when it next grows the
// decision log. A follower takes it before it reads the log: if the read
// finds nothing new, waiting on the channel misses no decision.
func (s *Service) NextDecision() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.grew
}

// OutcomeCount returns the number of published decisions, the seq of the
// newest one, without copying the log (admission drain-rate sampling and
// dashboard paging read it).
func (s *Service) OutcomeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}

// PendingCount returns the number of changes still undecided.
func (s *Service) PendingCount() int { return s.runtime.PendingCount() }

// BuildStats exposes the build controller's work counters.
func (s *Service) BuildStats() buildsys.Stats { return s.ctrl.Stats() }

// AnalyzerStats exposes the conflict analyzer's work counters.
func (s *Service) AnalyzerStats() conflict.Stats { return s.analyzer.Stats() }

// PlannerStats exposes the planner engine's incremental-epoch work counters.
func (s *Service) PlannerStats() planner.Stats { return s.runtime.PlannerStats() }

// ShardStats exposes the shard coordinator's counters.
func (s *Service) ShardStats() shard.Stats { return s.runtime.Stats() }

// ArbiterStats exposes the commit arbiter's counters.
func (s *Service) ArbiterStats() arbiter.Stats { return s.arb.Stats() }

// ReliabilityStats exposes the flaky-failure layer's work counters.
func (s *Service) ReliabilityStats() reliability.Stats { return s.rel.Stats() }

// AppendGauges appends the counters of every layer the service runs —
// builds, conflict analysis, planner engine, shard runtime, arbiter,
// reliability and, with Config.Sched, the priority lanes — to g, one gauge
// per Stats field, named by metrics.Render. It is the one reader behind
// /api/v1/status, the dashboard and sqd's shutdown log.
func (s *Service) AppendGauges(g metrics.Gauges) metrics.Gauges {
	g = metrics.Append(g, s.BuildStats(), s.AnalyzerStats(), s.PlannerStats(), s.ShardStats(), s.ArbiterStats(), s.ReliabilityStats())
	if s.tracker != nil {
		g = metrics.Append(g, s.tracker.Snapshot())
	}
	return g
}

// Start launches the background event loop and the publisher: one
// goroutine that runs publish each time the runtime merges decisions;
// decisions merged during a journal wait ride the next one. Call Stop to
// halt both.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		return // already running
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	done := make(chan struct{})
	s.loopDone = done
	go func() {
		defer close(done)
		ran := make(chan struct{})
		go func() {
			defer close(ran)
			_ = s.runtime.Run(ctx)
		}()
		for {
			select {
			case <-s.runtime.Decided():
				_ = s.publish() // a failed journal publishes nothing more; Health reports it
			case <-ran:
				return
			}
		}
	}()
}

// Stop halts the background loop and the publisher started by Start,
// aborting every build still running, then publishes what the loop merged
// as it stopped.
func (s *Service) Stop() {
	s.mu.Lock()
	cancel, done := s.cancel, s.loopDone
	s.cancel = nil
	s.loopDone = nil
	s.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	_ = s.publish() // a failed journal fails the SnapshotJournal or CloseJournal that follows
}
