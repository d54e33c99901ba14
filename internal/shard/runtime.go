// Package shard is the service's planning topology (DESIGN.md §4h): a
// coordinator partitions the pending changes into connected components of
// the conflict graph, assigns each component to one of N independent planner
// engines by rendezvous-hashing the component's target-subtree anchor, and
// routes every engine's commits through the serialized commit arbiter.
// Changes in different components are mutually independent (§5), so each
// engine plans over its own component group — an induced view of the
// coordinator's graph — instead of the global queue, the source of the
// scale-out win, while the arbiter's cross-shard re-validation keeps every
// mainline commit green. With one engine the partition is moot and the
// runtime is the paper's single SubmitQueue planner.
package shard

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mastergreen/internal/arbiter"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/events"
	"mastergreen/internal/planner"
	"mastergreen/internal/queue"
	"mastergreen/internal/repo"
	"mastergreen/internal/speculation"
)

// Config tunes the shard runtime.
type Config struct {
	// Shards is the number of planner engines (<=0: 1).
	Shards int
	// Planner is the per-engine planner configuration template. Budget is the
	// *total* build budget and is split evenly across engines (minimum 1
	// each); Committer and ShardID are overwritten per engine.
	Planner planner.Config
	// Spec builds one speculation engine per planner engine. Engines must not
	// share one: a Plan is scratch that lives only until the engine's next
	// Plan call, so an Engine serves one caller at a time.
	Spec func() *speculation.Engine
	// Events, when non-nil, receives TypeShardRebalanced events.
	Events *events.Bus
}

// member is a pending change the coordinator has adopted from the intake
// queue: its original global submission sequence, its current engine and its
// share of its component's anchor (anchorOf), computed once at adoption.
type member struct {
	c       *change.Change
	seq     uint64
	shard   int // -1 until first assignment
	anchor  string
	restart bool
	gone    bool // decided; dropped from order at the next heavy pass
}

// engine is one planner shard: an isolated sub-queue plus a planner instance
// whose conflict source is a coordinator-fed view of the global graph. The
// planner's wake channel is the engine loop's only wake-up.
type engine struct {
	queue   *queue.Queue
	planner *planner.Planner
}

// Runtime is the sharding coordinator: it owns the component partition, the
// engine fleet, and the outcome merge.
type Runtime struct {
	repo     *repo.Repo
	intake   *queue.Queue
	analyzer *conflict.Analyzer
	arb      *arbiter.Arbiter
	engines  []*engine
	cfg      Config
	headWake <-chan struct{}
	// wake is the coordinator's coalescing wake channel (buffered 1): a
	// submission (Poke) and an engine tick that made progress poke it, so an
	// arrival is adopted and a decision is merged at once.
	wake chan struct{}
	// decidedWake (buffered 1) is poked whenever a merge hands decisions
	// over; decided, under dmu, holds them until DrainDecided takes them.
	decidedWake chan struct{}
	dmu         sync.Mutex
	decided     []planner.Outcome

	// gmu guards the cached global conflict graph the engine views read.
	gmu    sync.RWMutex
	graph  *conflict.Graph
	failed map[change.ID]error

	mu      sync.Mutex
	members map[change.ID]*member
	// order holds the members in submission order (the intake hands them
	// out ascending); decided ones stay until a heavy pass compacts them.
	order       []*member
	arrivals    []*change.Change // scratch for the intake's pending order
	first       bool
	lastRejects int // arbiter CrossShardRejects at the last heavy partition
	stats       Stats

	// membersN mirrors len(members) so the serving path (admission checks)
	// reads it without queueing behind rt.mu — Partition holds that mutex
	// across the global conflict-graph rebuild, and a submit must never wait
	// on planning. It is refreshed under rt.mu, at every partition pass.
	membersN atomic.Int64
}

// New creates a runtime with cfg.Shards planner engines over the repository.
// intake is the service's submission queue: each partition pass drains it
// and re-homes changes into per-engine sub-queues, preserving their global
// submission sequence. All engines share the build controller (one global
// worker pool) and the commit arbiter.
func New(r *repo.Repo, intake *queue.Queue, an *conflict.Analyzer, arb *arbiter.Arbiter, ctrl *buildsys.Controller, cfg Config) *Runtime {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	rt := &Runtime{
		repo:        r,
		intake:      intake,
		analyzer:    an,
		arb:         arb,
		cfg:         cfg,
		headWake:    arb.Subscribe(),
		wake:        make(chan struct{}, 1),
		decidedWake: make(chan struct{}, 1),
		members:     map[change.ID]*member{},
		first:       true,
	}
	perEngine := cfg.Planner.Budget / cfg.Shards
	if perEngine < 1 {
		perEngine = 1
	}
	for i := 0; i < cfg.Shards; i++ {
		ecfg := cfg.Planner
		ecfg.Budget = perEngine
		ecfg.Committer = arb
		ecfg.ShardID = i
		ecfg.Sched = cfg.Planner.Sched.Clone() // per-engine policy; nil stays nil
		eq := queue.New(1)
		rt.engines = append(rt.engines, &engine{
			queue:   eq,
			planner: planner.New(r, eq, &engineView{rt: rt}, cfg.Spec(), ctrl, ecfg),
		})
	}
	return rt
}

// PendingCount returns the changes not yet decided: still in intake plus
// adopted members. Lock-free on the coordinator mutex — the admission layer
// calls this on every submission, and blocking those behind a heavy
// partition pass would put planning latency on the serving path. The member
// count lags mutations by at most one partition pass.
func (rt *Runtime) PendingCount() int {
	return rt.intake.Len() + int(rt.membersN.Load())
}

// Poke wakes the coordinator without blocking, so it adopts what the intake
// queue received; pokes that arrive before the loop next waits coalesce.
func (rt *Runtime) Poke() { buildsys.Poke(rt.wake) }

// Decided is poked (coalescing, buffered 1) whenever a merge hands
// decisions over to DrainDecided.
func (rt *Runtime) Decided() <-chan struct{} { return rt.decidedWake }

// DrainDecided appends the decisions merged since the last drain to dst, in
// merge order, and forgets them. The service's publisher is its one caller:
// it makes them durable before anything names them. It takes only the
// hand-off's own mutex, never rt.mu.
func (rt *Runtime) DrainDecided(dst []planner.Outcome) []planner.Outcome {
	rt.dmu.Lock()
	defer rt.dmu.Unlock()
	dst = append(dst, rt.decided...)
	clear(rt.decided)
	rt.decided = rt.decided[:0]
	return dst
}

// collectOutcomesLocked drains newly-decided outcomes from every engine and
// hands each change's one decision to DrainDecided. The coordinator may
// briefly double-assign a change while moving it, and the arbiter guarantees
// at most one of the decisions commits. So a rejection for a change the
// arbiter has already landed is a stale loser — the change hit the mainline
// through another engine before this one noticed — and is dropped for the
// winner's commit outcome; and the first decision kept ends the change's
// membership, so any later one is dropped. A double-assigned change has two
// engines holding the same *change.Change, so nobody writes a decision into
// the change: the outcome is the only record of it. Decided members leave
// the partition and their engine sub-queue. Callers hold rt.mu.
func (rt *Runtime) collectOutcomesLocked() {
	rt.dmu.Lock()
	defer rt.dmu.Unlock()
	n := len(rt.decided)
	for _, e := range rt.engines {
		rt.decided = e.planner.DrainOutcomes(rt.decided)
	}
	keep := rt.decided[:n]
	for _, o := range rt.decided[n:] {
		m, ok := rt.members[o.ID]
		if !ok || o.State != change.StateCommitted && rt.arb.Committed(o.ID) {
			continue
		}
		// The deciding engine has usually removed it already. If it was
		// another engine's stale copy, that engine's pending set just
		// changed under it: wake it to replan.
		if m.shard >= 0 && rt.engines[m.shard].queue.Contains(o.ID) {
			_ = rt.engines[m.shard].queue.Remove(o.ID)
			rt.engines[m.shard].planner.Poke()
		}
		delete(rt.members, o.ID)
		m.gone = true
		keep = append(keep, o)
	}
	clear(rt.decided[len(keep):])
	rt.decided = keep
	rt.membersN.Store(int64(len(rt.members)))
	if len(keep) > n {
		buildsys.Poke(rt.decidedWake)
	}
}

// Partition runs one coordinator epoch: adopt intake arrivals, retire decided
// members, and — when arrivals, a cross-shard bounce, or the first run demand
// it — recompute the global conflict graph, its connected components, and the
// component→shard assignment. Decisions only shrink components, so the
// expensive graph pass is skipped entirely on quiet epochs.
func (rt *Runtime) Partition() {
	rt.mu.Lock()
	newArrivals := false
	rt.arrivals = rt.intake.AppendPending(rt.arrivals[:0])
	for _, c := range rt.arrivals {
		seq, err := rt.intake.Seq(c.ID)
		if err != nil {
			continue // raced a concurrent removal
		}
		// Count the member before removing it from intake so a concurrent
		// lock-free PendingCount can only over-count mid-adoption, never
		// report a spurious zero while work is still in flight.
		m := &member{c: c, seq: seq, shard: -1}
		m.anchor, m.restart = anchorOf(c)
		rt.members[c.ID] = m
		rt.order = append(rt.order, m)
		rt.membersN.Add(1)
		_ = rt.intake.Remove(c.ID)
		newArrivals = true
	}
	clear(rt.arrivals)
	rt.collectOutcomesLocked()
	rt.stats.Partitions++
	regroup := false
	if rejects := rt.arb.CrossShardRejects(); rejects != rt.lastRejects {
		// A bounced proposal means two shards' footprints overlapped: the
		// partition is stale, so regroup before the engines retry.
		rt.lastRejects = rejects
		regroup = true
	}
	if !newArrivals && !rt.first && !regroup {
		rt.stats.ShardsActive = rt.activeLocked()
		rt.mu.Unlock()
		return
	}
	rt.first = false
	rt.stats.HeavyPartitions++

	live := rt.order[:0]
	for _, m := range rt.order {
		if !m.gone {
			live = append(live, m)
		}
	}
	clear(rt.order[len(live):])
	rt.order = live
	pending := make([]*change.Change, len(live))
	for i, m := range live {
		pending[i] = m.c
	}
	g, failed := rt.analyzer.BuildGraph(pending)
	rt.gmu.Lock()
	rt.graph = g
	rt.failed = failed
	rt.gmu.Unlock()

	comps := g.Components()
	var failedIDs []change.ID
	for id := range failed {
		failedIDs = append(failedIDs, id)
	}
	sort.Slice(failedIDs, func(i, j int) bool { return failedIDs[i] < failedIDs[j] })
	for _, id := range failedIDs {
		comps = append(comps, []change.ID{id}) // singleton: engine rejects it
	}
	rt.stats.Components = len(comps)

	moved := 0
	handed := make([]bool, len(rt.engines))
	var group []*member
	for _, comp := range comps {
		group = group[:0]
		for _, id := range comp {
			if m, ok := rt.members[id]; ok {
				group = append(group, m)
			}
		}
		sh := engineFor(componentAnchor(group, comp), len(rt.engines))
		for _, m := range group {
			if m.shard == sh {
				continue
			}
			id := m.c.ID
			if m.shard >= 0 {
				_ = rt.engines[m.shard].queue.Remove(id)
				handed[m.shard] = true // its builds for the change are moot now
				moved++
			}
			if err := rt.engines[sh].queue.EnqueueSeq(m.c, m.seq); err != nil {
				continue // duplicate: already owned by the target engine
			}
			m.shard = sh
			handed[sh] = true
		}
	}
	rt.stats.Rebalanced += moved
	rt.stats.ShardsActive = rt.activeLocked()
	rt.mu.Unlock()

	// Publish and wake engines after releasing the coordinator mutex.
	if moved > 0 && rt.cfg.Events != nil {
		rt.cfg.Events.Publish(events.Event{
			Type:   events.TypeShardRebalanced,
			Detail: fmt.Sprintf("%d changes moved across %d components", moved, len(comps)),
		})
	}
	for i, h := range handed {
		if h {
			rt.engines[i].planner.Poke()
		}
	}
}

// activeLocked counts engines with a non-empty sub-queue. Callers hold rt.mu.
func (rt *Runtime) activeLocked() int {
	n := 0
	for _, e := range rt.engines {
		if e.queue.Len() > 0 {
			n++
		}
	}
	return n
}

// anchorOf folds c's sorted paths into the smallest top-level directory they
// touch, except that a path whose top-level directory is empty (a leading
// "/") restarts the fold; it reports whether one did.
func anchorOf(c *change.Change) (anchor string, restart bool) {
	for _, p := range c.Patch.Paths() {
		switch top, _, _ := strings.Cut(p, "/"); {
		case top == "":
			anchor, restart = "", true
		case anchor == "" || top < anchor:
			anchor = top
		}
	}
	return anchor, restart
}

// componentAnchor names a connected component for engineFor by continuing
// anchorOf's fold across its members in submission order: the smallest
// top-level directory any member touches, or the first change's ID if none
// does. Components rooted in the same subtree land on the same engine, and
// the assignment is stable as unrelated components come and go.
func componentAnchor(group []*member, comp []change.ID) string {
	anchor := ""
	for _, m := range group {
		switch {
		case m.restart:
			anchor = m.anchor
		case m.anchor != "" && (anchor == "" || m.anchor < anchor):
			anchor = m.anchor
		}
	}
	if anchor == "" && len(comp) > 0 {
		anchor = string(comp[0])
	}
	return anchor
}

// engineFor picks one of n engines for an anchor by rendezvous
// (highest-random-weight) hashing — the role Apache Helix plays in the
// paper's deployment (§7.1). Engine i is named "shard-i" and weighs
// sha256(anchor + "|shard-i"), first 8 bytes big-endian; the heaviest wins,
// ties to the smaller name. Growing the fleet moves only the anchors the new
// engine now ranks first on.
func engineFor(anchor string, n int) int {
	best, bestW := 0, uint64(0)
	for i := 0; i < n; i++ {
		h := sha256.Sum256([]byte(anchor + "|shard-" + strconv.Itoa(i)))
		w := binary.BigEndian.Uint64(h[:8])
		if i == 0 || w > bestW || (w == bestW && strconv.Itoa(i) < strconv.Itoa(best)) {
			best, bestW = i, w
		}
	}
	return best
}

// Tick runs one synchronous epoch: a partition pass, one planner tick per
// engine in shard order, and a final partition pass so freshly-decided
// outcomes are merged before the caller observes state. Deterministic given
// deterministic inputs — the golden trace test relies on it.
func (rt *Runtime) Tick(ctx context.Context) (bool, error) {
	rt.Partition()
	progress := false
	for _, e := range rt.engines {
		p, err := e.planner.Tick(ctx)
		if err != nil {
			return progress, err
		}
		progress = progress || p
	}
	rt.Partition()
	return progress, nil
}

// Run drives the fleet until the context is cancelled. It returns
// planner.ErrStopped on cancellation, or the first engine error.
func (rt *Runtime) Run(ctx context.Context) error {
	return rt.loop(ctx, false)
}

// Quiesce drives the fleet until every adopted change is decided and the
// intake queue is empty. It returns planner.ErrStopped if the context is
// cancelled first, or the first engine error.
func (rt *Runtime) Quiesce(ctx context.Context) error {
	return rt.loop(ctx, true)
}

// loop is the only code that ticks the planner engines, and it runs only on
// events. Each engine goroutine ticks, pokes the coordinator if the tick
// made progress, then waits for stop, cancellation or its planner's wake
// channel — poked when a partition hands the engine changes, when a build
// that can decide its subject ends or a merge fails before one starts, and
// when a sched deadline ages its weight. The coordinator partitions when a submission arrives, when an
// engine made progress and on each head advance. The loop ends on
// cancellation, on the first engine error, or, with untilIdle, once nothing
// is pending. It then stops the engines' aging timers and, after an error,
// aborts their running builds, which nothing is left to reap.
func (rt *Runtime) loop(ctx context.Context, untilIdle bool) error {
	stop := make(chan struct{})
	errs := make(chan error, len(rt.engines)) // each engine sends at most once
	var wg sync.WaitGroup
	for _, e := range rt.engines {
		wg.Add(1)
		go func(e *engine) {
			defer wg.Done()
			for {
				progress, err := e.planner.Tick(ctx)
				if err != nil {
					errs <- err
					return
				}
				if progress {
					rt.Poke()
				}
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				case <-e.planner.Wake():
					// Builds started together end together. Yield once so
					// the ends already due are reaped by this one tick:
					// deciding the first of them alone decides out of
					// submission order, and a younger commit makes an older
					// result stale (~3 % more builds per commit on
					// build_bound without the yield).
					runtime.Gosched()
				}
			}
		}(e)
	}
	var err error
	for err == nil {
		rt.Partition()
		if untilIdle && rt.PendingCount() == 0 {
			break
		}
		select {
		case <-ctx.Done():
			err = planner.ErrStopped
		case err = <-errs:
		case <-rt.headWake:
		case <-rt.wake:
		}
	}
	close(stop)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errs:
		default:
		}
	}
	for _, e := range rt.engines {
		e.planner.StopAging()
		if err != nil {
			e.planner.AbortAll("engine loop stopped")
		}
	}
	rt.Partition() // merge outcomes decided during shutdown
	return err
}
