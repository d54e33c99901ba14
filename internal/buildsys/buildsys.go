// Package buildsys is the §6 build controller: a bounded worker pool that
// executes a build's steps target by target, with the two levers that make
// speculation affordable at scale:
//
//   - Minimal build steps: targets listed in Request.PriorTargets — already
//     produced at the same hash by the prefix build of a speculation chain —
//     are skipped outright.
//   - A content-addressed artifact cache keyed by (target name, target hash,
//     step kind): identical work across speculation branches executes once,
//     concurrent duplicates coalesce onto the first execution in flight. The
//     cache keeps two generations of cacheGeneration entries each, so it
//     stays bounded however long the controller runs.
//
// Steps run sequentially (compile before tests); within a step, targets fan
// out across the worker pool. Builds are started asynchronously via Start
// and observed through the returned Task; Cancel aborts a build, whose
// result then carries ErrAborted and is dropped by the planner.
package buildsys

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/clock"
	"mastergreen/internal/repo"
)

// ErrAborted is the result error of a cancelled build.
var ErrAborted = errors.New("buildsys: build aborted")

// StepRunner executes one build step for one target against a snapshot. A
// nil runner means every step succeeds (useful when the repository's own
// structure is the only failure source under study).
type StepRunner interface {
	RunStep(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error
}

// RunnerFunc adapts a function to StepRunner.
type RunnerFunc func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error

// RunStep implements StepRunner.
func (f RunnerFunc) RunStep(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
	return f(ctx, step, target, snap)
}

// StepHashRunner is an optional StepRunner extension. Runners that implement
// it receive the target's Algorithm 1 hash alongside each step-unit — the
// same content address the artifact cache keys by — so layers like the
// reliability detector can key outcomes by identical inputs. The hash is
// empty for repo-wide step-units that have no target to address.
type StepHashRunner interface {
	RunStepHash(ctx context.Context, step change.BuildStep, target, hash string, snap repo.Snapshot) error
}

// Request describes one build: a snapshot, the steps to run, and the
// affected targets (name -> Algorithm 1 hash) the steps cover.
type Request struct {
	// Key identifies the build in results (the speculation build key).
	Key string
	// Snapshot is the merged tree the build runs against.
	Snapshot repo.Snapshot
	// Steps run in order; a step failure fails the build and skips the rest.
	Steps []change.BuildStep
	// Targets maps affected target names to their hashes. A step with an
	// explicit Targets list covers only those names; otherwise it covers all.
	// An empty map still runs each step once (a repo-wide step-unit).
	Targets map[string]string
	// PriorTargets lists targets already built at the same hash by the
	// prefix build of a speculation chain; they are skipped (§6 minimal
	// build steps).
	PriorTargets map[string]bool
	// Wake, when non-nil, is poked without blocking once the build has
	// finished and its result is visible through Task.Done (Task.WakeOnDone
	// may swap it while the build runs): the planner engine that owns a
	// decisive build hands in its coalescing wake channel, so the result is
	// reaped at once.
	Wake chan<- struct{}
}

// Result is a build's final disposition.
type Result struct {
	Key          string
	OK           bool
	FailedStep   string // name of the step that failed, when !OK
	FailedTarget string // target whose step-unit failed, when attributable
	Err          error  // failure cause; ErrAborted for cancelled builds
	// Executed is the total step-unit wall time the runner spent on this
	// build — summed across concurrent units, so it measures compute, not
	// elapsed time. Aborted builds report the work executed before the
	// cancel: exactly the fleet compute the abort threw away.
	Executed time.Duration
}

// UnitTime is the executed wall time of one (step, target) unit, the finest
// grain of the fleet-compute accounting: every executed unit of a build is
// attributable to (build key, target, step kind).
type UnitTime struct {
	Step     string
	Kind     change.StepKind
	Target   string
	Duration time.Duration
}

// Stats counts controller work. Step-units are (step, target) executions;
// SkippedCache is the artifact-cache hit counter, CacheMisses the cacheable
// units that had to execute.
type Stats struct {
	Builds       int // builds started
	Completed    int // builds finished without abort
	Aborted      int // builds cancelled before completion
	Executed     int // step-units executed by the runner
	SkippedPrior int // step-units skipped via PriorTargets (minimal steps)
	SkippedCache int // step-units skipped via artifact-cache hits
	CacheMisses  int // cacheable step-units that found no artifact

	// Fleet-compute accounting (DESIGN.md §4j): ExecTime is the total
	// executed step-unit wall time across all builds; ExecTimeByKind breaks
	// it down per step kind. UsefulTime and WastedTime split the time of
	// *ended* builds by disposition — completed builds' compute was (at
	// least potentially) useful, aborted builds' compute is pure waste.
	// ExecTime − UsefulTime − WastedTime is the compute of still-running
	// builds, not yet attributable.
	ExecTime       time.Duration
	ExecTimeByKind KindTimes
	UsefulTime     time.Duration
	WastedTime     time.Duration
}

// KindTimes is executed step-unit wall time per step kind, one field per
// change.StepKind, so Stats is a plain value that copies without allocating.
// Each field's gauge is named after the kind's String form (ui-test →
// exec_time_by_kind_ui_test_s); UiTest is spelled so that a word split at
// every lower-to-upper boundary gives that name too. A kind outside the five
// is counted in Stats.ExecTime only.
type KindTimes struct {
	Compile         time.Duration
	UnitTest        time.Duration
	IntegrationTest time.Duration
	UiTest          time.Duration
	Artifact        time.Duration
}

// of returns the field that accumulates kind k, or nil for an unknown kind.
func (kt *KindTimes) of(k change.StepKind) *time.Duration {
	switch k {
	case change.StepCompile:
		return &kt.Compile
	case change.StepUnitTest:
		return &kt.UnitTest
	case change.StepIntegrationTest:
		return &kt.IntegrationTest
	case change.StepUITest:
		return &kt.UiTest
	case change.StepArtifact:
		return &kt.Artifact
	}
	return nil
}

// cacheGeneration is the number of artifacts the young cache generation
// holds before it becomes the old one and the previous old one is dropped.
// The artifact cache therefore keeps between cacheGeneration and
// 2·cacheGeneration entries: far more than the gap between an artifact's
// last use and its next reuse (under a hundred insertions in the benchmark
// workloads), so bounding it drops no hit.
const cacheGeneration = 4096

// artifact is one cache slot. Claimants execute the step-unit and publish ok
// before closing done; waiters either reuse the artifact or — when the
// claimant failed or aborted — retry the claim themselves.
type artifact struct {
	done chan struct{}
	ok   bool
}

// Controller executes builds over a bounded worker pool. All methods are
// safe for concurrent use.
type Controller struct {
	runner StepRunner
	sem    chan struct{} // bounds concurrently executing step-units
	// clock times step-units (ExecTime); the planner reads it too.
	clock clock.Clock

	mu    sync.Mutex
	stats Stats
	cache map[string]*artifact // content address -> artifact, young generation
	old   map[string]*artifact // previous generation; a hit moves back to cache
}

// NewController creates a controller with the given worker count (<=0: 4).
// A nil runner succeeds at every step.
func NewController(workers int, runner StepRunner) *Controller {
	if workers <= 0 {
		workers = 4
	}
	return &Controller{
		runner: runner,
		sem:    make(chan struct{}, workers),
		clock:  clock.Wall, //lint:ignore wallclock the default until core.NewService sets the service's clock
		cache:  map[string]*artifact{},
		old:    map[string]*artifact{},
	}
}

// SetClock sets the clock that times step-units, which the planner engine
// over this controller reads too. Call it before any build starts.
func (c *Controller) SetClock(clk clock.Clock) { c.clock = clk }

// Clock returns the controller's clock (clock.Wall unless SetClock ran).
func (c *Controller) Clock() clock.Clock { return c.clock }

// Stats returns a snapshot of the work counters. It allocates nothing.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Task is a build in flight.
type Task struct {
	key    string
	cancel context.CancelFunc
	done   chan struct{}
	result Result // immutable once done is closed

	// execNs accumulates executed step-unit wall time (atomically: units
	// run concurrently); readable mid-flight via Executed so abort events
	// can report the compute wasted so far.
	execNs int64
	unitMu sync.Mutex
	units  []UnitTime

	// wake is the channel poked once the build ends: Request.Wake, or the
	// one a later WakeOnDone handed in. ended records that the end has
	// already read it. Both are guarded by wakeMu.
	wakeMu sync.Mutex
	wake   chan<- struct{}
	ended  bool
}

// Done is closed when the build finishes (normally or by abort).
func (t *Task) Done() <-chan struct{} { return t.done }

// Result returns the build's result; valid after Done is closed.
func (t *Task) Result() Result {
	<-t.done
	return t.result
}

// Cancel aborts the build; its result will carry ErrAborted. Idempotent.
func (t *Task) Cancel() { t.cancel() }

// WakeOnDone makes the build's end poke w instead of Request.Wake. A build
// that has already ended pokes w at once, so the poke is never lost: the
// planner arms a running build this way when a resolution makes it the
// build that decides its subject.
func (t *Task) WakeOnDone(w chan<- struct{}) {
	t.wakeMu.Lock()
	t.wake = w
	ended := t.ended
	t.wakeMu.Unlock()
	if ended {
		Poke(w)
	}
}

// Poke sends on a coalescing wake channel (buffered 1) without blocking: a
// wake already pending covers this one too. A nil channel is not poked.
func Poke(w chan<- struct{}) {
	if w == nil {
		return
	}
	select {
	case w <- struct{}{}:
	default:
	}
}

// Executed returns the step-unit wall time executed so far. Safe to call
// while the build runs; after Done it equals Result().Executed.
func (t *Task) Executed() time.Duration {
	return time.Duration(atomic.LoadInt64(&t.execNs))
}

// UnitTimes returns the per-(step, target) executed durations recorded so
// far, the finest grain of the compute accounting.
func (t *Task) UnitTimes() []UnitTime {
	t.unitMu.Lock()
	defer t.unitMu.Unlock()
	return append([]UnitTime(nil), t.units...)
}

// recordUnit attributes one executed step-unit's wall time to the build and
// the controller-wide per-kind rollup.
func (c *Controller) recordUnit(t *Task, step change.BuildStep, target string, d time.Duration) {
	if t != nil {
		atomic.AddInt64(&t.execNs, int64(d))
		t.unitMu.Lock()
		t.units = append(t.units, UnitTime{Step: step.Name, Kind: step.Kind, Target: target, Duration: d})
		t.unitMu.Unlock()
	}
	c.mu.Lock()
	c.stats.ExecTime += d
	if k := c.stats.ExecTimeByKind.of(step.Kind); k != nil {
		*k += d
	}
	c.mu.Unlock()
}

// Start launches the build asynchronously. When the build ends it pokes
// req.Wake (or the channel a later WakeOnDone handed in), after Done is
// closed, so whoever the poke wakes sees the result.
func (c *Controller) Start(ctx context.Context, req Request) *Task {
	ctx, cancel := context.WithCancel(ctx)
	t := &Task{key: req.Key, cancel: cancel, done: make(chan struct{}), wake: req.Wake}
	c.mu.Lock()
	c.stats.Builds++
	c.mu.Unlock()
	go func() {
		defer cancel()
		t.result = c.execute(ctx, req, t)
		t.result.Executed = t.Executed()
		c.mu.Lock()
		if errors.Is(t.result.Err, ErrAborted) {
			c.stats.Aborted++
			c.stats.WastedTime += t.result.Executed
		} else {
			c.stats.Completed++
			c.stats.UsefulTime += t.result.Executed
		}
		// Close done before the counters can be read: a caller that sees
		// the build counted in Stats must also see it finished.
		close(t.done)
		c.mu.Unlock()
		t.wakeMu.Lock()
		w := t.wake
		t.ended = true
		t.wakeMu.Unlock()
		Poke(w)
	}()
	return t
}

// Run executes the build synchronously.
func (c *Controller) Run(ctx context.Context, req Request) Result {
	return c.Start(ctx, req).Result()
}

// execute runs the build's steps in order, fanning each step's targets out
// over the worker pool. Executed step-unit wall time is attributed to t.
func (c *Controller) execute(ctx context.Context, req Request, t *Task) Result {
	all := make([]string, 0, len(req.Targets))
	for name := range req.Targets {
		all = append(all, name)
	}
	sort.Strings(all)
	for _, step := range req.Steps {
		names := all
		if len(step.Targets) > 0 {
			names = append([]string(nil), step.Targets...)
			sort.Strings(names)
		} else if len(all) == 0 {
			// No affected targets: the step still runs once, repo-wide
			// (uncacheable — there is no target hash to address it by).
			names = []string{""}
		}
		if target, err := c.runStep(ctx, req, step, names, t); err != nil {
			if ctx.Err() != nil || errors.Is(err, ErrAborted) {
				return Result{Key: req.Key, OK: false, FailedStep: step.Name, FailedTarget: target, Err: ErrAborted}
			}
			return Result{Key: req.Key, OK: false, FailedStep: step.Name, FailedTarget: target, Err: err}
		}
	}
	return Result{Key: req.Key, OK: true}
}

// runStep executes one step over the given target names in parallel and
// returns the failing target and failure of the lowest-indexed failing
// target (deterministic).
func (c *Controller) runStep(ctx context.Context, req Request, step change.BuildStep, names []string, t *Task) (string, error) {
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		if req.PriorTargets[name] {
			c.count(func(s *Stats) { s.SkippedPrior++ })
			continue
		}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = c.runUnit(ctx, req, step, name, t)
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return names[i], err
		}
	}
	return "", nil
}

// runUnit executes one (step, target) unit, consulting the artifact cache
// when the target has a hash to address it by.
func (c *Controller) runUnit(ctx context.Context, req Request, step change.BuildStep, name string, t *Task) error {
	hash := req.Targets[name]
	if name == "" || hash == "" {
		return c.invoke(ctx, step, name, "", req.Snapshot, t)
	}
	key := name + "\x00" + hash + "\x00" + step.Kind.String()
	for {
		c.mu.Lock()
		a, ok := c.cache[key]
		if !ok {
			if a, ok = c.old[key]; ok {
				delete(c.old, key)
			} else {
				a = &artifact{done: make(chan struct{})}
			}
			c.store(key, a)
		}
		c.mu.Unlock()
		if ok {
			select {
			case <-a.done:
			case <-ctx.Done():
				return ErrAborted
			}
			if a.ok {
				c.count(func(s *Stats) { s.SkippedCache++ })
				return nil
			}
			// The claimant failed or aborted; its slot was withdrawn.
			// Re-claim and run the unit ourselves.
			continue
		}
		c.count(func(s *Stats) { s.CacheMisses++ })
		err := c.invoke(ctx, step, name, hash, req.Snapshot, t)
		c.mu.Lock()
		if err == nil {
			a.ok = true
		} else {
			// Failures are not cached. The slot may have moved to the old
			// generation or been dropped and re-claimed since: withdraw it
			// only where it is still this claimant's.
			if c.cache[key] == a {
				delete(c.cache, key)
			}
			if c.old[key] == a {
				delete(c.old, key)
			}
		}
		c.mu.Unlock()
		close(a.done)
		return err
	}
}

// store puts a into the young generation, first retiring it to old (and
// dropping the previous old generation) when it is full. Callers hold c.mu.
func (c *Controller) store(key string, a *artifact) {
	if len(c.cache) >= cacheGeneration {
		c.old, c.cache = c.cache, c.old
		clear(c.cache)
	}
	c.cache[key] = a
}

// invoke runs the step through the worker pool, handing hash-aware runners
// the target's content address. Executed wall time — including the time a
// unit ran before a cancel interrupted it — is attributed to the task and
// the per-kind rollup.
func (c *Controller) invoke(ctx context.Context, step change.BuildStep, name, hash string, snap repo.Snapshot, t *Task) error {
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return ErrAborted
	}
	defer func() { <-c.sem }()
	if ctx.Err() != nil {
		return ErrAborted
	}
	c.count(func(s *Stats) { s.Executed++ })
	if c.runner == nil {
		c.recordUnit(t, step, name, 0)
		return nil
	}
	start := c.clock.Now()
	var err error
	if hr, ok := c.runner.(StepHashRunner); ok {
		err = hr.RunStepHash(ctx, step, name, hash, snap)
	} else {
		err = c.runner.RunStep(ctx, step, name, snap)
	}
	c.recordUnit(t, step, name, c.clock.Now().Sub(start))
	return err
}

func (c *Controller) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}
