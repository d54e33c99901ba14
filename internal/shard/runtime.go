// Package shard is the service's planning runtime (DESIGN.md §4h): a
// coordinator moves submitted changes from the intake queue into the one
// planner engine's queue, keeps the global conflict graph the engine plans
// over, and hands the engine's decisions to the service's publisher. The
// engine gets the whole build budget — the paper's single SubmitQueue
// planner over one bounded pool (§4) — and commits through the serialized
// commit arbiter, whose Eq. 6 re-validation lets independent changes build
// and commit in parallel (§5.2) while every mainline commit stays green.
package shard

import (
	"context"
	"sync"

	"mastergreen/internal/arbiter"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/planner"
	"mastergreen/internal/queue"
	"mastergreen/internal/repo"
	"mastergreen/internal/speculation"
)

// Config tunes the shard runtime.
type Config struct {
	// Shards is read by nothing: the runtime drives one planner engine. It
	// stays only because bench/ still sets it; ROADMAP item 1 deletes it.
	Shards int
	// Planner is the engine's planner configuration. Budget is the whole
	// build budget; Committer is overwritten with the commit arbiter.
	Planner planner.Config
	// Spec builds the engine's speculation engine.
	Spec func() *speculation.Engine
}

// Runtime is the coordinator and its one planner engine: it owns the
// engine's queue, the cached global conflict graph the engine plans over,
// and the hand-off of decisions to the publisher.
type Runtime struct {
	repo     *repo.Repo
	intake   *queue.Queue
	queue    *queue.Queue // the engine's pending changes, in submission order
	analyzer *conflict.Analyzer
	planner  *planner.Planner
	// wake is the coordinator's coalescing wake channel (buffered 1): a
	// submission pokes it (Poke), so an arrival is adopted at once.
	wake chan struct{}
	// decidedWake (buffered 1) is poked whenever a partition hands
	// decisions over; decided, under dmu, holds them until DrainDecided
	// takes them.
	decidedWake chan struct{}
	dmu         sync.Mutex
	decided     []planner.Outcome

	// mu guards the cached global conflict graph the engine view reads and
	// the coordinator's own state.
	mu       sync.Mutex
	graph    *conflict.Graph
	failed   map[change.ID]error
	arrivals []*change.Change // scratch for the intake's pending order
	first    bool
	stats    Stats
}

// New creates a runtime with one planner engine over the repository. intake
// is the service's submission queue: each partition pass moves its arrivals
// into the engine's queue, preserving their submission order. The engine
// builds through ctrl and commits through arb.
func New(r *repo.Repo, intake *queue.Queue, an *conflict.Analyzer, arb *arbiter.Arbiter, ctrl *buildsys.Controller, cfg Config) *Runtime {
	rt := &Runtime{
		repo:        r,
		intake:      intake,
		queue:       queue.New(1),
		analyzer:    an,
		wake:        make(chan struct{}, 1),
		decidedWake: make(chan struct{}, 1),
		first:       true,
	}
	pcfg := cfg.Planner
	pcfg.Committer = arb
	rt.planner = planner.New(r, rt.queue, &engineView{rt: rt}, cfg.Spec(), ctrl, pcfg)
	return rt
}

// PendingCount returns the changes not yet decided: still in intake plus in
// the engine's queue. It takes neither coordinator mutex — the admission
// layer calls this on every submission, and blocking those behind a heavy
// partition pass would put planning latency on the serving path. A change
// moving between the queues is counted once or twice, never zero times.
func (rt *Runtime) PendingCount() int {
	return rt.intake.Len() + rt.queue.Len()
}

// Poke wakes the coordinator without blocking, so it adopts what the intake
// queue received; pokes that arrive before the loop next waits coalesce.
func (rt *Runtime) Poke() { buildsys.Poke(rt.wake) }

// Decided is poked (coalescing, buffered 1) whenever a partition hands
// decisions over to DrainDecided.
func (rt *Runtime) Decided() <-chan struct{} { return rt.decidedWake }

// DrainDecided appends the decisions merged since the last drain to dst, in
// decision order, and forgets them. The service's publisher is its one
// caller: it makes them durable before anything names them. It takes only
// the hand-off's own mutex, never rt.mu.
func (rt *Runtime) DrainDecided(dst []planner.Outcome) []planner.Outcome {
	rt.dmu.Lock()
	defer rt.dmu.Unlock()
	dst = append(dst, rt.decided...)
	clear(rt.decided)
	rt.decided = rt.decided[:0]
	return dst
}

// collectOutcomes drains the engine's new decisions into the hand-off and
// pokes the publisher if there were any.
func (rt *Runtime) collectOutcomes() {
	rt.dmu.Lock()
	n := len(rt.decided)
	rt.decided = rt.planner.DrainOutcomes(rt.decided)
	grew := len(rt.decided) > n
	rt.dmu.Unlock()
	if grew {
		buildsys.Poke(rt.decidedWake)
	}
}

// Partition runs one coordinator epoch: move intake arrivals into the
// engine's queue, drain the engine's decisions, and — when arrivals or the
// first run demand it — recompute the global conflict graph over the
// engine's pending set. Decisions only shrink the graph, so the expensive
// pass is skipped entirely on quiet epochs.
func (rt *Runtime) Partition() {
	rt.mu.Lock()
	rt.arrivals = rt.intake.AppendPending(rt.arrivals[:0])
	arrived := len(rt.arrivals) > 0
	for _, c := range rt.arrivals {
		// Enqueue before removing from intake so a concurrent lock-free
		// PendingCount can only over-count mid-move, never report a
		// spurious zero while work is still in flight.
		_ = rt.queue.Enqueue(c) // a duplicate is already the engine's
		_ = rt.intake.Remove(c.ID)
	}
	clear(rt.arrivals)
	rt.collectOutcomes()
	rt.stats.Partitions++
	if !arrived && !rt.first {
		rt.mu.Unlock()
		return
	}
	rt.first = false
	rt.stats.HeavyPartitions++
	rt.graph, rt.failed = rt.analyzer.BuildGraph(rt.queue.Pending())
	rt.mu.Unlock()
	if arrived {
		rt.planner.Poke()
	}
}

// Tick runs one synchronous epoch: a partition pass, one planner tick, and
// a final partition pass so freshly-decided outcomes are merged before the
// caller observes state. Deterministic given deterministic inputs — the
// golden trace test relies on it.
func (rt *Runtime) Tick(ctx context.Context) (bool, error) {
	rt.Partition()
	progress, err := rt.planner.Tick(ctx)
	if err != nil {
		return progress, err
	}
	rt.Partition()
	return progress, nil
}

// Run drives the engine until the context is cancelled. It returns
// planner.ErrStopped on cancellation, or the first engine error.
func (rt *Runtime) Run(ctx context.Context) error {
	return rt.loop(ctx, false)
}

// Quiesce drives the engine until every adopted change is decided and the
// intake queue is empty. It returns planner.ErrStopped if the context is
// cancelled first, or the first engine error.
func (rt *Runtime) Quiesce(ctx context.Context) error {
	return rt.loop(ctx, true)
}

// loop is the only code that ticks the planner engine, and it runs only on
// events, on one goroutine. It partitions when a submission pokes the
// coordinator and after an engine tick that made progress (a decision to
// merge, a build started); it ticks the engine once as it starts and then
// on each receive from the planner's wake channel — poked when a partition
// hands the engine changes, when a build that can decide its subject ends
// or a merge fails before one starts, and when a sched deadline ages a
// weight. The loop ends on cancellation, on an engine error, or, with
// untilIdle, once nothing is pending. It then stops the engine's aging
// timer and, after an error, aborts its running builds, which nothing is
// left to reap.
func (rt *Runtime) loop(ctx context.Context, untilIdle bool) error {
	var err error
	partition, tick := true, true
	for {
		if partition {
			rt.Partition()
			if untilIdle && rt.PendingCount() == 0 {
				break
			}
		}
		if tick {
			var progress bool
			if progress, err = rt.planner.Tick(ctx); err != nil {
				break
			}
			if progress {
				partition, tick = true, false
				continue
			}
		}
		partition, tick = false, false
		select {
		case <-ctx.Done():
			err = planner.ErrStopped
		case <-rt.wake:
			partition = true
		case <-rt.planner.Wake():
			tick = true
		}
		if err != nil {
			break
		}
	}
	rt.planner.StopAging()
	if err != nil {
		rt.planner.AbortAll("engine loop stopped")
	}
	rt.Partition() // merge outcomes decided during shutdown
	return err
}
