// Package sim is the discrete-event simulator behind the paper's evaluation
// (§8): it replays a synthetic workload (arrivals, build durations, ground
// truth conflicts) against a pluggable scheduling strategy on a bounded
// worker pool, under exactly SubmitQueue's serializability semantics:
//
//   - A build applies an assumption set (conflicting predecessors speculated
//     to commit) plus its subject change on top of the mainline at start.
//   - A change commits only when every potentially-conflicting predecessor
//     is resolved and a finished build exists whose assumptions match what
//     actually happened; otherwise the relevant strategy keeps scheduling.
//   - Build outcomes come from the workload's ground truth: a build fails iff
//     some applied change fails individually, two applied changes really
//     conflict, or an applied change really conflicts with an already
//     committed one.
//
// Time is virtual; a simulated hour costs microseconds, which is what lets
// the harness sweep the paper's full {changes/hour} × {workers} grids.
package sim

import (
	"container/heap"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"mastergreen/internal/metrics"
	"mastergreen/internal/workload"
)

// BuildSpec is one desired build, expressed over workload change indices.
type BuildSpec struct {
	// Subject is the change this build decides.
	Subject int
	// Assumed are conflicting predecessors speculated to commit, in
	// submission order. They are applied before Subject.
	Assumed []int
	// AssumedRejected are conflicting predecessors speculated to be
	// rejected (not applied).
	AssumedRejected []int
	// Priority orders build starts when workers are scarce (higher first).
	Priority float64
	// Batch, when non-empty, turns this into a batch build (Chromium
	// commit-queue style): all listed changes are applied and commit
	// atomically on success. Subject must be the last batch member.
	Batch []int
	// AllowReorder permits this build to decide its subject even while
	// conflicting predecessors are still pending (§10 "change reordering"):
	// the subject may commit ahead of them, and they must then rebuild on
	// top of it. The mainline stays green; only the commit order among
	// conflicting changes deviates from submission order.
	AllowReorder bool
}

// clone returns a copy of the spec that shares no slice with it. Strategies
// may hand the engine specs cut from buffers they reuse on their next Plan
// call, so the engine copies a spec at the moment it starts the build.
func (b BuildSpec) clone() BuildSpec {
	b.Assumed = slices.Clone(b.Assumed)
	b.AssumedRejected = slices.Clone(b.AssumedRejected)
	b.Batch = slices.Clone(b.Batch)
	return b
}

// RunningBuild is an in-flight build visible to strategies.
type RunningBuild struct {
	Spec        BuildSpec
	BaseCommits int // mainline commit count when started
	Start       time.Duration
	Finish      time.Duration
}

// FinishedBuild is a completed build visible to strategies.
type FinishedBuild struct {
	Spec        BuildSpec
	BaseCommits int
	OK          bool
	FinishedAt  time.Duration
	// Cost is the worker time the build consumed (start to finish).
	Cost time.Duration
	// FailedMember, for a failed batch build whose failure the build system
	// attributed to one batch member (the real path's Result.FailedTarget),
	// is that member's change index; -1 otherwise — the failure was caused
	// by an assumed (non-batch) change, or by a flake, which identifies no
	// target. Batching strategies evict an attributed member instead of
	// blindly halving.
	FailedMember int
	// used marks results that decided a change (commit or reject); the
	// useful/wasted compute split reads it at the end of the run.
	used bool
}

// State is the view a strategy plans from. Strategies must treat it as
// read-only; they see no ground truth (the Oracle strategy carries its own).
type State struct {
	Now         time.Duration
	W           *workload.Workload
	Pending     []int // submission order (== index order)
	Running     []RunningBuild
	Finished    []FinishedBuild // non-aborted completed builds, oldest first
	Committed   []int           // commit order
	Workers     int
	UseAnalyzer bool

	// Per-change status, indexed by workload change index.
	rejected  []bool
	pending   []bool
	committed []bool
}

// IsCommitted reports whether change i has been committed to master.
func (s *State) IsCommitted(i int) bool { return s.committed[i] }

// IsPending reports whether change i is still undecided and submitted.
func (s *State) IsPending(i int) bool { return s.pending[i] }

// IsRejected reports whether change i was rejected.
func (s *State) IsRejected(i int) bool { return s.rejected[i] }

// PotentialConflict reports the conflict-analyzer view of a pair: with the
// analyzer enabled it returns the workload's potential-conflict relation;
// without it (Fig. 13's ablation) every pair conflicts.
func (s *State) PotentialConflict(i, j int) bool {
	if i == j {
		return false
	}
	if !s.UseAnalyzer {
		return true
	}
	return s.W.Changes[i].PotentialConflicts[j]
}

// PendingConflictingPredecessors returns the still-pending changes submitted
// before i that (per the analyzer view) conflict with it, ascending.
func (s *State) PendingConflictingPredecessors(i int) []int {
	var out []int
	if s.UseAnalyzer {
		for j := range s.W.Changes[i].PotentialConflicts {
			if j < i && s.pending[j] {
				out = append(out, j)
			}
		}
		sort.Ints(out)
		return out
	}
	for _, j := range s.Pending {
		if j >= i {
			break
		}
		out = append(out, j)
	}
	return out
}

// HasPendingConflictingPredecessor is the cheap form of the above.
func (s *State) HasPendingConflictingPredecessor(i int) bool {
	if s.UseAnalyzer {
		for j := range s.W.Changes[i].PotentialConflicts {
			if j < i && s.pending[j] {
				return true
			}
		}
		return false
	}
	return len(s.Pending) > 0 && s.Pending[0] < i
}

// Strategy plans the desired build set from the current state.
type Strategy interface {
	Name() string
	// Plan returns the builds the strategy wants running now, in priority
	// order. The engine reconciles: running builds that stay wanted keep
	// running, unwanted ones are aborted, and new ones start while workers
	// are free. The returned specs need only stay valid until the next Plan
	// call: the engine copies the ones it starts.
	Plan(st *State) []BuildSpec
}

// Engine constants.
const (
	// maxVirtualTime aborts runaway simulations.
	maxVirtualTime = 10000 * time.Hour
	// planEvery throttles strategy re-planning: between build finishes and
	// decisions, plain arrivals trigger at most one re-plan per interval of
	// virtual time. This mirrors the paper's epoch-driven planner (§6: "the
	// planner engine contacts the speculation engine on every epoch").
	planEvery = 30 * time.Second
	// incrementalFactor models §6's minimal build steps + artifact caching:
	// once any build of a subject has finished, later builds of the same
	// subject (under different assumptions) reuse cached per-target
	// artifacts and cost this fraction of the full duration.
	incrementalFactor = 0.4
	// flakeSteps is the number of per-build steps exposed to flakiness
	// (mirroring change.DefaultBuildSteps).
	flakeSteps = 5
)

// Config tunes a simulation run.
type Config struct {
	Workers     int
	UseAnalyzer bool // conflict analyzer on (the paper's default)

	// FlakePerStepRate, when > 0, models an unreliable build fleet
	// (DESIGN.md §4g): each of the flakeSteps steps of an otherwise-passing
	// build independently suffers an injected transient failure with this
	// probability. Draws are pure hashes of (FlakeSeed, build identity,
	// execution number, step, attempt), so runs are bit-reproducible.
	FlakePerStepRate float64
	// FlakeSeed seeds the injected fault schedule.
	FlakeSeed int64

	// PruneObsolete enables the §4j obsolete-build pruning the planner
	// applies on every resolution: running builds whose subject is already
	// resolved, whose assumptions were falsified, or whose identity a
	// finished valid build already holds are aborted eagerly after each
	// decision instead of running to completion.
	PruneObsolete bool

	// Classes, when non-nil, labels each change (by index) with its
	// scheduling class (int(change.Class)) for per-class result metrics.
	// Labels only — strategy behavior is driven by the strategy's own
	// class/deadline configuration, so an unprioritized baseline can still
	// report per-class turnaround for comparison.
	Classes []int
}

// Result aggregates a run's measurements.
type Result struct {
	Strategy  string
	Workers   int
	Committed int
	Rejected  int
	// TurnaroundMin are per-change turnaround times in minutes (submission →
	// terminal decision), for committed changes and for all changes.
	TurnaroundCommittedMin []float64
	TurnaroundAllMin       []float64
	// Makespan is first-arrival → last-decision.
	Makespan time.Duration
	// ThroughputPerHour is commits divided by makespan hours.
	ThroughputPerHour float64
	BuildsStarted     int
	BuildsAborted     int
	BuildsFinished    int
	// WorkerBusy is cumulative worker-occupied time (including time spent on
	// builds that were later aborted); divided by Workers × Makespan it
	// yields utilization.
	WorkerBusy time.Duration
	// WorkerBusyUseful is the worker time of finished builds whose results
	// decided a change; WorkerBusyWasted is everything else worker time paid
	// for — aborted builds, finished-but-unused speculation, and dropped
	// verification failures. Useful + Wasted = WorkerBusy (§4j fleet-compute
	// accounting).
	WorkerBusyUseful time.Duration
	WorkerBusyWasted time.Duration
	// WorkerMinutesPerCommit is WorkerBusy in minutes divided by Committed —
	// the fleet compute each landed change cost, the lean-CI headline.
	WorkerMinutesPerCommit float64
	// BuildsPruned counts builds aborted by Config.PruneObsolete (a subset
	// of BuildsAborted).
	BuildsPruned int
	// CommittedChanges lists committed change indices in commit order, so
	// experiments can assert that an optimization changed no decisions.
	CommittedChanges []int
	// TurnaroundByClassMin groups TurnaroundAllMin by Config.Classes label
	// (nil when Classes was nil): the per-priority-class turnaround CDFs of
	// the ablation-sched experiment.
	TurnaroundByClassMin map[int][]float64
	// DecidedAtMin is each change's decision time in virtual minutes, -1 if
	// never decided; starvation-freedom tests compare it against deadlines.
	DecidedAtMin []float64
	// GreenViolations counts commits that would have broken the mainline
	// (must be zero for every strategy under these semantics).
	GreenViolations int
	// Undecided counts changes never resolved before the virtual-time cap
	// (nonzero only for pathological strategy/load combinations).
	Undecided int
	// Reliability measurements (Config.FlakePerStepRate > 0):
	// FalseRejections counts rejected changes that genuinely succeed and
	// conflict with nothing committed — innocents lost to injected flakes.
	// FlakesInjected counts injected step failures, StepRetries the in-place
	// retries the reliability layer spent, and FlakyVerifications the failed
	// decisive builds granted a verification re-run instead of rejecting.
	FalseRejections    int
	FlakesInjected     int
	StepRetries        int
	FlakyVerifications int
}

// Summary returns the order statistics of committed-change turnaround.
func (r *Result) Summary() metrics.Summary {
	return metrics.Summarize(r.TurnaroundCommittedMin)
}

// Utilization returns the fraction of worker capacity occupied over the
// makespan (speculative and aborted work included).
func (r *Result) Utilization() float64 {
	if r.Workers <= 0 || r.Makespan <= 0 {
		return 0
	}
	return float64(r.WorkerBusy) / (float64(r.Workers) * float64(r.Makespan))
}

// event kinds.
const (
	evArrival = iota
	evFinish
)

type event struct {
	at   time.Duration
	kind int
	idx  int // arrival: change index; finish: running-build slot id
	seq  int // tiebreak for determinism
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind // arrivals before finishes at same instant
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// runningSlot is the engine's bookkeeping for one in-flight build.
type runningSlot struct {
	spec    BuildSpec
	base    int
	start   time.Duration
	finish  time.Duration
	aborted bool
	ident   identCache
}

// identCache memoizes a build's dynamic identity; it is valid until the next
// commit or rejection (the decisions epoch).
type identCache struct {
	epoch int // decisions epoch the value was computed at; 0 = never
	val   string
	valid bool
}

// engine executes one simulation.
type engine struct {
	w   *workload.Workload
	cfg Config
	st  *State

	events   eventHeap
	seq      int
	now      time.Duration
	slots    map[int]*runningSlot
	nextSlot int

	commitIndex map[int]int // change -> mainline position
	decidedAt   map[int]time.Duration

	// finishedBySubject indexes st.Finished entries by subject change.
	finishedBySubject map[int][]int
	// worklist holds changes whose decidability may have changed; decide
	// consumes it from workHead and resets both once it is drained.
	worklist []int
	workHead int
	inWork   map[int]bool

	// Plan throttling: dirty forces a re-plan (set by finishes/decisions);
	// otherwise arrivals re-plan at most once per planEvery.
	dirty    bool
	havePlan bool
	lastPlan time.Duration

	// decisionsEpoch counts commits+rejections; identCaches keyed on it.
	decisionsEpoch int
	finishedIdent  []identCache // parallel to st.Finished
	// builtBefore marks subjects with at least one finished build, whose
	// later builds run incrementally (§6).
	builtBefore map[int]bool

	// Reliability modeling (cfg.FlakePerStepRate > 0): execSeq numbers the
	// executions of each raw build spec so re-runs draw fresh faults,
	// flakeFailed records whether the latest execution of a spec failed only
	// because of an injected flake (the detector's suspicion signal), and
	// verifiedSubject marks subjects whose one verification re-run of a
	// failed decisive build has been spent.
	execSeq         map[string]int
	flakeFailed     map[string]bool
	verifiedSubject map[int]bool

	// Scratch reused across calls, so a reconcile allocates for the builds it
	// starts rather than for every build it considers. mark/markGen are
	// normalize's per-change stamps; remaining and rej hold its and
	// specIdentity's lists; idBuf and memoBuf are the identity being looked
	// up and the memoised identity being refreshed (two buffers because the
	// lookup refreshes memos while its own bytes are still in use); the rest
	// is reconcile's and onResolved's bookkeeping.
	mark      []int
	markGen   int
	remaining []int
	rej       []int
	idBuf     []byte
	memoBuf   []byte
	flakeBuf  []byte         // flakeDraw's hash input
	want      map[string]int // identity -> index into the desired specs
	order     []string
	runningBy map[string]bool
	starts    []string
	unwanted  []int
	slotIDs   []int
	unblocked []int

	res *Result
}

// Run simulates the workload under the strategy and returns measurements.
func Run(w *workload.Workload, s Strategy, cfg Config) *Result {
	if cfg.Workers <= 0 {
		cfg.Workers = 100
	}
	e := &engine{
		w:   w,
		cfg: cfg,
		st: &State{
			W:           w,
			Workers:     cfg.Workers,
			UseAnalyzer: cfg.UseAnalyzer,
			rejected:    make([]bool, len(w.Changes)),
			pending:     make([]bool, len(w.Changes)),
			committed:   make([]bool, len(w.Changes)),
		},
		slots:             map[int]*runningSlot{},
		commitIndex:       map[int]int{},
		decidedAt:         map[int]time.Duration{},
		finishedBySubject: map[int][]int{},
		builtBefore:       map[int]bool{},
		inWork:            map[int]bool{},
		execSeq:           map[string]int{},
		flakeFailed:       map[string]bool{},
		verifiedSubject:   map[int]bool{},
		mark:              make([]int, len(w.Changes)),
		want:              map[string]int{},
		runningBy:         map[string]bool{},
		res:               &Result{Strategy: s.Name(), Workers: cfg.Workers},
	}
	heap.Init(&e.events)
	for _, c := range w.Changes {
		heap.Push(&e.events, event{at: c.SubmitAt, kind: evArrival, idx: c.Index, seq: e.seq})
		e.seq++
	}

	for e.events.Len() > 0 && e.now <= maxVirtualTime {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		e.st.Now = e.now
		e.handle(ev)
		// Drain all events at the same timestamp before re-planning.
		for e.events.Len() > 0 && e.events[0].at == e.now {
			e.handle(heap.Pop(&e.events).(event))
		}
		e.decide()
		if cfg.PruneObsolete {
			e.pruneObsolete()
		}
		if !e.havePlan || e.dirty || e.now-e.lastPlan >= planEvery {
			e.reconcile(s)
			e.havePlan = true
			e.dirty = false
			e.lastPlan = e.now
		}
	}
	e.finishMetrics(w)
	return e.res
}

func (e *engine) pushWork(i int) {
	if !e.inWork[i] {
		e.inWork[i] = true
		e.worklist = append(e.worklist, i)
	}
}

func (e *engine) handle(ev event) {
	switch ev.kind {
	case evArrival:
		e.st.Pending = append(e.st.Pending, ev.idx)
		e.st.pending[ev.idx] = true
		e.pushWork(ev.idx)
	case evFinish:
		slot, ok := e.slots[ev.idx]
		if !ok || slot.aborted {
			return
		}
		delete(e.slots, ev.idx)
		cost := e.now - slot.start
		e.res.WorkerBusy += cost
		okRes, guilty := e.groundTruth(slot)
		if e.cfg.FlakePerStepRate > 0 {
			flaked := false
			if okRes {
				// Injected flakes only flip pass→fail, never fail→pass, so
				// the green-mainline invariant cannot be violated by
				// flakiness.
				okRes = e.flakeOutcome(slot)
				flaked = !okRes
				if flaked {
					guilty = -1 // a flake identifies no failing target
				}
			}
			e.flakeFailed[rawSpecKey(slot.spec)] = flaked
		}
		// Attribution surfaces only when the cause is a batch member: a
		// failure caused by an assumed change says nothing about the batch.
		failedMember := -1
		if !okRes && guilty >= 0 {
			for _, m := range slot.spec.Batch {
				if m == guilty {
					failedMember = guilty
					break
				}
			}
		}
		fb := FinishedBuild{
			Spec:         slot.spec,
			BaseCommits:  slot.base,
			OK:           okRes,
			FinishedAt:   e.now,
			Cost:         cost,
			FailedMember: failedMember,
		}
		e.finishedBySubject[fb.Spec.Subject] = append(e.finishedBySubject[fb.Spec.Subject], len(e.st.Finished))
		e.st.Finished = append(e.st.Finished, fb)
		e.finishedIdent = append(e.finishedIdent, slot.ident)
		e.builtBefore[fb.Spec.Subject] = true
		e.res.BuildsFinished++
		e.pushWork(fb.Spec.Subject)
		e.dirty = true
	}
}

// groundTruth evaluates a build's outcome from the workload ground truth.
// On failure it also returns the change index the failure attributes to —
// the individually-failing change, the later member of a real intra-build
// conflict, or the applied change that conflicts with an already-committed
// one (mirroring the real build system's Result.FailedTarget).
func (e *engine) groundTruth(slot *runningSlot) (ok bool, guilty int) {
	// The build applies Assumed, then the batch members or the subject alone.
	spec := &slot.spec
	subject := [1]int{spec.Subject}
	tail := subject[:]
	if len(spec.Batch) > 0 {
		tail = spec.Batch
	}
	n := len(spec.Assumed) + len(tail)
	applied := func(k int) int {
		if k < len(spec.Assumed) {
			return spec.Assumed[k]
		}
		return tail[k-len(spec.Assumed)]
	}
	for k := 0; k < n; k++ {
		if i := applied(k); !e.w.Changes[i].Succeeds {
			return false, i
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if e.w.Changes[applied(a)].RealConflicts[applied(b)] {
				return false, applied(b)
			}
		}
	}
	// Conflicts with changes committed before the build's base.
	for k := 0; k < n; k++ {
		i := applied(k)
		for j := range e.w.Changes[i].RealConflicts {
			if pos, ok := e.commitIndex[j]; ok && pos < slot.base {
				return false, i
			}
		}
	}
	return true, -1
}

// rawSpecKey renders a build spec's raw shape (subject, applied list,
// rejection assumptions, batch) as a stable identity for the per-execution
// fault-draw counter. Unlike specIdentity it is independent of the
// normalization epoch, so a re-run of the same spec draws fresh faults.
func rawSpecKey(spec BuildSpec) string {
	buf := make([]byte, 0, 8*(len(spec.Assumed)+len(spec.AssumedRejected)+len(spec.Batch)+1))
	buf = strconv.AppendInt(buf, int64(spec.Subject), 10)
	buf = append(buf, '|')
	for _, a := range spec.Assumed {
		buf = strconv.AppendInt(buf, int64(a), 10)
		buf = append(buf, '+')
	}
	buf = append(buf, '!')
	for _, r := range spec.AssumedRejected {
		buf = strconv.AppendInt(buf, int64(r), 10)
		buf = append(buf, ',')
	}
	for _, m := range spec.Batch {
		buf = append(buf, 'B')
		buf = strconv.AppendInt(buf, int64(m), 10)
	}
	return string(buf)
}

// flakeOutcome perturbs a genuinely-passing build with injected per-step
// transient failures. Each flaked step gets one in-place retry (a second
// independent draw) — the unit-level fail-then-pass that proves flakiness on
// identical inputs.
func (e *engine) flakeOutcome(slot *runningSlot) bool {
	key := rawSpecKey(slot.spec)
	exec := e.execSeq[key]
	e.execSeq[key] = exec + 1
	pass := true
	for s := 0; s < flakeSteps; s++ {
		if !e.flakeDraw(key, exec, s, 0) {
			continue
		}
		e.res.FlakesInjected++
		e.res.StepRetries++
		if e.flakeDraw(key, exec, s, 1) {
			e.res.FlakesInjected++
			pass = false
		}
	}
	return pass
}

// flakeDraw is the deterministic per-(identity, execution, step, attempt)
// fault decision: an FNV-1a hash of the tuple against FlakePerStepRate.
func (e *engine) flakeDraw(key string, exec, step, attempt int) bool {
	// The hashed bytes — seed, key, "exec/step/attempt" — are assembled in
	// one reused buffer and written once.
	b := e.flakeBuf[:0]
	for i := 0; i < 8; i++ {
		b = append(b, byte(uint64(e.cfg.FlakeSeed)>>(8*i)))
	}
	b = append(b, key...)
	b = strconv.AppendInt(b, int64(exec), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(step), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(attempt), 10)
	e.flakeBuf = b
	h := fnv.New64a()
	_, _ = h.Write(b)
	// Avalanche the sum (murmur3 fmix64): FNV's final byte shifts the hash
	// by only ~±prime, which would leave the kept top bits — and thus the
	// draw — nearly identical across attempts.
	s := h.Sum64()
	s ^= s >> 33
	s *= 0xff51afd7ed558ccd
	s ^= s >> 33
	s *= 0xc4ceb9fe1a85ec53
	s ^= s >> 33
	u := float64(s>>11) / float64(1<<53)
	return u < e.cfg.FlakePerStepRate
}

// dropFinished removes st.Finished[k] (a failed decisive build granted a
// verification re-run) and rebuilds the subject index, so reconcile no
// longer sees a finished result for the identity and reschedules the build.
func (e *engine) dropFinished(k int) {
	// The dropped result is discarded, so its compute was wasted; the splice
	// hides it from the end-of-run useful/wasted scan.
	e.res.WorkerBusyWasted += e.st.Finished[k].Cost
	e.st.Finished = append(e.st.Finished[:k], e.st.Finished[k+1:]...)
	e.finishedIdent = append(e.finishedIdent[:k], e.finishedIdent[k+1:]...)
	e.finishedBySubject = make(map[int][]int, len(e.finishedBySubject))
	for idx, fb := range e.st.Finished {
		e.finishedBySubject[fb.Spec.Subject] = append(e.finishedBySubject[fb.Spec.Subject], idx)
	}
}

// retryDecisive grants one verification re-run per subject for a failed
// decisive build under injected flakiness: the failed result is dropped, so
// the strategy reschedules the identity (fresh fault draws), and only a
// second consecutive failure rejects the change. Only flake-suspect failures
// qualify — a build that failed on ground truth (bad change or real
// conflict) rejects immediately, mirroring the detector's genuine-failure
// short circuit.
func (e *engine) retryDecisive(subject, finishedIdx int) bool {
	if e.cfg.FlakePerStepRate <= 0 || e.verifiedSubject[subject] {
		return false
	}
	if !e.flakeFailed[rawSpecKey(e.st.Finished[finishedIdx].Spec)] {
		return false
	}
	e.verifiedSubject[subject] = true
	e.dropFinished(finishedIdx)
	e.res.FlakyVerifications++
	e.dirty = true
	e.pushWork(subject)
	return true
}

// normalize advances a build's base through the committed list, consuming
// assumed changes (in any order — out-of-order commits can only involve
// mutually independent assumptions) and skipping independent commits. It
// reports whether the build is still valid (assumptions not falsified) and,
// if so, the assumptions not yet realized, in submission order — in a buffer
// the next normalize call overwrites.
//
// Assumptions are marked in e.mark, one stamp per change and a fresh
// generation per call: gen = assumed to commit and not yet seen in the
// committed list, gen+1 = assumed to commit and seen, gen+2 = assumed
// rejected.
func (e *engine) normalize(spec *BuildSpec, base int) (remaining []int, valid bool) {
	if len(spec.Batch) > 0 {
		// Batch members must not have been separately resolved.
		for _, m := range spec.Batch {
			if e.st.committed[m] || e.st.rejected[m] {
				return nil, false
			}
		}
	}
	e.markGen += 3
	gen := e.markGen
	for _, r := range spec.AssumedRejected {
		if e.st.committed[r] {
			return nil, false // assumed rejected but actually committed
		}
		e.mark[r] = gen + 2
	}
	for _, a := range spec.Assumed {
		if e.st.rejected[a] {
			return nil, false // assumed committed but actually rejected
		}
		e.mark[a] = gen
	}
	for pos := base; pos < len(e.st.Committed); pos++ {
		c := e.st.Committed[pos]
		if e.mark[c] == gen {
			e.mark[c] = gen + 1 // assumption realized
			continue
		}
		if e.conflictsWithBuild(spec, c) || e.mark[c] == gen+2 {
			return nil, false // a conflicting commit the build did not include
		}
		// Independent commit; build result unaffected.
	}
	e.remaining = e.remaining[:0]
	for _, a := range spec.Assumed {
		if e.mark[a] == gen {
			e.remaining = append(e.remaining, a)
		}
	}
	return e.remaining, true
}

// conflictsWithBuild reports whether a committed change c (not applied by
// the build) invalidates the build's result: it conflicts with the subject
// or, for batch builds, with any batch member.
func (e *engine) conflictsWithBuild(spec *BuildSpec, c int) bool {
	if e.st.PotentialConflict(spec.Subject, c) {
		return true
	}
	for _, m := range spec.Batch {
		if e.st.PotentialConflict(m, c) {
			return true
		}
	}
	return false
}

// decide commits/rejects changes whose fate is determined, processing the
// worklist of changes whose decidability may have changed.
func (e *engine) decide() {
	for ; e.workHead < len(e.worklist); e.workHead++ {
		i := e.worklist[e.workHead]
		e.inWork[i] = false
		if !e.st.pending[i] {
			continue
		}
		fb, fbIdx, ok := e.decisiveBuild(i)
		if !ok {
			continue
		}
		if len(fb.Spec.Batch) > 0 {
			if fb.OK {
				e.st.Finished[fbIdx].used = true
				for _, m := range fb.Spec.Batch {
					e.commit(m)
				}
			} else if len(fb.Spec.Batch) == 1 {
				if !e.retryDecisive(fb.Spec.Batch[0], fbIdx) {
					e.st.Finished[fbIdx].used = true
					e.reject(fb.Spec.Batch[0])
				}
			}
			// Failed multi-change batches are left to the strategy to split
			// and retry (Chromium CQ behavior).
			continue
		}
		if fb.OK {
			e.st.Finished[fbIdx].used = true
			e.commit(i)
		} else if !e.retryDecisive(i, fbIdx) {
			e.st.Finished[fbIdx].used = true
			e.reject(i)
		}
	}
	e.worklist, e.workHead = e.worklist[:0], 0
}

// decisiveBuild finds a finished build that decides change i given the
// current committed/rejected reality, returning its st.Finished index too
// (so a suspect failure can be dropped for a verification re-run). A change
// is decidable only when every pending conflicting predecessor is accounted
// for: resolved, or (for batch builds) a member of the same batch.
func (e *engine) decisiveBuild(i int) (FinishedBuild, int, bool) {
	preds := e.st.PendingConflictingPredecessors(i)
	idxs := e.finishedBySubject[i]
	for k := len(idxs) - 1; k >= 0; k-- {
		fb := e.st.Finished[idxs[k]]
		if len(preds) > 0 && !fb.Spec.AllowReorder {
			if len(fb.Spec.Batch) == 0 {
				continue
			}
			// Batches have a handful of members: a scan beats a set.
			blocked := false
			for _, p := range preds {
				if !slices.Contains(fb.Spec.Batch, p) {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
		}
		remaining, valid := e.normalize(&fb.Spec, fb.BaseCommits)
		if !valid || len(remaining) > 0 {
			continue
		}
		ok := true
		for _, r := range fb.Spec.AssumedRejected {
			if !e.st.rejected[r] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		return fb, idxs[k], true
	}
	return FinishedBuild{}, -1, false
}

// onResolved pushes every pending change that might be unblocked by the
// resolution of i onto the worklist, in ascending index order: the worklist
// order is the order in which changes that become decidable at one instant
// commit, so it must not follow the conflict map's iteration order.
func (e *engine) onResolved(i int) {
	if e.st.UseAnalyzer {
		e.unblocked = e.unblocked[:0]
		for j := range e.w.Changes[i].PotentialConflicts {
			if j > i && e.st.pending[j] {
				e.unblocked = append(e.unblocked, j)
			}
		}
		sort.Ints(e.unblocked)
		for _, j := range e.unblocked {
			e.pushWork(j)
		}
	} else if len(e.st.Pending) > 0 {
		e.pushWork(e.st.Pending[0])
	}
}

func (e *engine) commit(i int) {
	e.dirty = true
	e.decisionsEpoch++
	if !e.st.pending[i] {
		return
	}
	// Green-mainline invariant check: committing a change that fails or
	// really conflicts with a prior commit would break master.
	if !e.w.Changes[i].Succeeds {
		e.res.GreenViolations++
	}
	for j := range e.w.Changes[i].RealConflicts {
		if e.st.committed[j] {
			e.res.GreenViolations++
		}
	}
	e.commitIndex[i] = len(e.st.Committed)
	e.st.Committed = append(e.st.Committed, i)
	e.st.committed[i] = true
	e.removePending(i)
	e.decidedAt[i] = e.now
	e.res.Committed++
	e.onResolved(i)
}

func (e *engine) reject(i int) {
	e.dirty = true
	e.decisionsEpoch++
	if !e.st.pending[i] {
		return
	}
	// False-rejection accounting under injected flakiness: the change
	// genuinely succeeds and conflicts with nothing committed, so only a
	// flake could have failed its decisive build.
	if e.cfg.FlakePerStepRate > 0 && e.w.Changes[i].Succeeds {
		innocent := true
		for j := range e.w.Changes[i].RealConflicts {
			if e.st.committed[j] {
				innocent = false
				break
			}
		}
		if innocent {
			e.res.FalseRejections++
		}
	}
	e.st.rejected[i] = true
	e.removePending(i)
	e.decidedAt[i] = e.now
	e.res.Rejected++
	e.onResolved(i)
}

func (e *engine) removePending(i int) {
	e.st.pending[i] = false
	// Pending is ascending; binary search for the slot.
	k := sort.SearchInts(e.st.Pending, i)
	if k < len(e.st.Pending) && e.st.Pending[k] == i {
		e.st.Pending = append(e.st.Pending[:k], e.st.Pending[k+1:]...)
	}
}

// specIdentity canonically identifies a build for reconciliation: the
// remaining assumptions after normalization, the subject, the batch, and the
// still-unresolved rejection assumptions. It renders the identity into buf
// (from its start) and returns the grown buffer; the bytes become a string
// only where an identity is stored.
func (e *engine) specIdentity(buf []byte, spec *BuildSpec, base int) ([]byte, bool) {
	buf = buf[:0]
	remaining, valid := e.normalize(spec, base)
	if !valid {
		return buf, false
	}
	rej := e.rej[:0]
	for _, r := range spec.AssumedRejected {
		if e.st.pending[r] {
			rej = append(rej, r)
		}
	}
	e.rej = rej
	sort.Ints(rej)
	for _, a := range remaining {
		buf = strconv.AppendInt(buf, int64(a), 10)
		buf = append(buf, '+')
	}
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(spec.Subject), 10)
	buf = append(buf, '!')
	for _, r := range rej {
		buf = strconv.AppendInt(buf, int64(r), 10)
		buf = append(buf, ',')
	}
	if len(spec.Batch) > 0 {
		buf = append(buf, 'B')
		for _, m := range spec.Batch {
			buf = strconv.AppendInt(buf, int64(m), 10)
			buf = append(buf, ',')
		}
	}
	if spec.AllowReorder {
		buf = append(buf, 'R')
	}
	return buf, true
}

// memoIdentity is specIdentity memoized in c per decisions epoch. Most
// decisions leave most identities as they were, so a refresh keeps the old
// string unless the bytes changed.
func (e *engine) memoIdentity(c *identCache, spec *BuildSpec, base int) (string, bool) {
	if c.epoch != e.decisionsEpoch+1 {
		var b []byte
		b, c.valid = e.specIdentity(e.memoBuf, spec, base)
		e.memoBuf = b
		if c.val != string(b) {
			c.val = string(b)
		}
		c.epoch = e.decisionsEpoch + 1
	}
	return c.val, c.valid
}

// slotIdentity is the memoized identity of a running build.
func (e *engine) slotIdentity(slot *runningSlot) (string, bool) {
	return e.memoIdentity(&slot.ident, &slot.spec, slot.base)
}

// finishedIdentity is the memoized identity of st.Finished[k].
func (e *engine) finishedIdentity(k int) (string, bool) {
	fb := &e.st.Finished[k]
	return e.memoIdentity(&e.finishedIdent[k], &fb.Spec, fb.BaseCommits)
}

// sortedSlotIDs returns the ids of the running slots in ascending order —
// the order every walk over e.slots uses, so that nothing the engine decides
// depends on map iteration order. The buffer is reused by the next call.
func (e *engine) sortedSlotIDs() []int {
	e.slotIDs = e.slotIDs[:0]
	for id := range e.slots {
		e.slotIDs = append(e.slotIDs, id)
	}
	sort.Ints(e.slotIDs)
	return e.slotIDs
}

// reconcile aligns running builds with the strategy's desired set.
func (e *engine) reconcile(s Strategy) {
	// Refresh the State's running view first.
	slotIDs := e.sortedSlotIDs()
	e.st.Running = e.st.Running[:0]
	for _, slotID := range slotIDs {
		slot := e.slots[slotID]
		e.st.Running = append(e.st.Running, RunningBuild{
			Spec: slot.spec, BaseCommits: slot.base, Start: slot.start, Finish: slot.finish,
		})
	}
	sort.Slice(e.st.Running, func(a, b int) bool {
		if e.st.Running[a].Start != e.st.Running[b].Start {
			return e.st.Running[a].Start < e.st.Running[b].Start
		}
		return e.st.Running[a].Spec.Subject < e.st.Running[b].Spec.Subject
	})

	desired := s.Plan(e.st)

	base := len(e.st.Committed)
	want := e.want
	clear(want)
	order := e.order[:0]
	for k := range desired {
		spec := &desired[k]
		if len(want) >= e.cfg.Workers {
			break
		}
		id, valid := e.specIdentity(e.idBuf, spec, base)
		e.idBuf = id
		if !valid {
			continue
		}
		if _, dup := want[string(id)]; dup {
			continue
		}
		// Skip builds whose result already exists and is still valid.
		if e.haveFinished(spec.Subject, id) {
			continue
		}
		key := string(id)
		want[key] = k
		order = append(order, key)
	}
	e.order = order

	// Abort running builds whose assumptions have been falsified. Builds that
	// are merely absent from the plan (e.g. the planner's budget truncated
	// them this round) stay running while workers are free: their results may
	// still be needed, and rebuilding them later would only add latency.
	runningBy := e.runningBy
	clear(runningBy)
	unwanted := e.unwanted[:0] // slot IDs of valid-but-unplanned builds
	for _, slotID := range slotIDs {
		slot := e.slots[slotID]
		id, valid := e.slotIdentity(slot)
		if !valid {
			e.abortSlot(slotID)
			continue
		}
		if _, wanted := want[id]; wanted && !runningBy[id] {
			runningBy[id] = true
			continue
		}
		unwanted = append(unwanted, slotID)
	}
	e.unwanted = unwanted

	// New builds to start, in priority order.
	starts := e.starts[:0]
	for _, id := range order {
		if !runningBy[id] {
			starts = append(starts, id)
		}
	}
	e.starts = starts
	// Preempt valid-but-unplanned builds only when a selected build needs the
	// worker (the paper's planner aborts builds that fall out of the selected
	// set; we do so lazily, on demand), and only when the newcomer's value
	// clearly exceeds the running build's — a damping margin that prevents
	// churn between near-equal-value builds as probabilities drift.
	free := e.cfg.Workers - len(e.slots)
	if free < len(starts) && len(unwanted) > 0 {
		// Lowest-value, newest-started builds are sacrificed first.
		sort.Slice(unwanted, func(a, b int) bool {
			sa, sb := e.slots[unwanted[a]], e.slots[unwanted[b]]
			if sa.spec.Priority != sb.spec.Priority {
				return sa.spec.Priority < sb.spec.Priority
			}
			if sa.start != sb.start {
				return sa.start > sb.start
			}
			return sa.spec.Subject > sb.spec.Subject
		})
		k := 0
		for _, id := range starts {
			if free >= len(starts) || k >= len(unwanted) {
				break
			}
			slot := e.slots[unwanted[k]]
			margin := 0.02 + 0.2*math.Abs(slot.spec.Priority)
			if desired[want[id]].Priority <= slot.spec.Priority+margin {
				continue // not clearly better; let the running build finish
			}
			e.abortSlot(unwanted[k])
			free++
			k++
		}
	}
	for _, id := range starts {
		if free <= 0 {
			break
		}
		// The strategy may reuse the memory behind desired on its next Plan
		// call; a started build outlives that, so it gets its own copy.
		spec := desired[want[id]].clone()
		dur := e.w.Changes[spec.Subject].Duration
		if e.builtBefore[spec.Subject] {
			// §6: minimal build steps + artifact cache make re-builds of the
			// same subject under new assumptions substantially cheaper.
			dur = time.Duration(float64(dur) * incrementalFactor)
		}
		slot := &runningSlot{
			spec:   spec,
			base:   len(e.st.Committed),
			start:  e.now,
			finish: e.now + dur,
		}
		e.slots[e.nextSlot] = slot
		heap.Push(&e.events, event{at: slot.finish, kind: evFinish, idx: e.nextSlot, seq: e.seq})
		e.seq++
		e.nextSlot++
		e.res.BuildsStarted++
		free--
	}
}

// abortSlot cancels a running build, accounting the worker time it consumed
// so far as busy and wasted.
func (e *engine) abortSlot(slotID int) {
	slot := e.slots[slotID]
	slot.aborted = true
	delete(e.slots, slotID)
	cost := e.now - slot.start
	e.res.WorkerBusy += cost
	e.res.WorkerBusyWasted += cost
	e.res.BuildsAborted++
}

// pruneObsolete eagerly aborts running builds whose results can no longer
// affect any decision — the simulator's mirror of the planner's per-
// resolution pruning (§4j). Without it, a build whose subject was resolved by
// a sibling speculation runs to completion: normalize treats the subject's
// own commit as an independent commit (a change never potentially conflicts
// with itself), so the slot stays "valid" and burns a worker for nothing.
func (e *engine) pruneObsolete() {
	for _, slotID := range e.sortedSlotIDs() {
		if e.slotObsolete(e.slots[slotID]) {
			e.abortSlot(slotID)
			e.res.BuildsPruned++
			e.dirty = true
		}
	}
}

// slotObsolete is the obsolescence predicate for a running slot: the subject
// is already resolved (plain builds; batch members are covered by normalize),
// the assumptions were falsified, or a finished valid build already holds the
// slot's identity (dominated).
func (e *engine) slotObsolete(slot *runningSlot) bool {
	if len(slot.spec.Batch) == 0 && !e.st.pending[slot.spec.Subject] {
		return true
	}
	id, valid := e.slotIdentity(slot)
	if !valid {
		return true
	}
	// haveFinished takes the identity as bytes (reconcile's form).
	e.idBuf = append(e.idBuf[:0], id...)
	return e.haveFinished(slot.spec.Subject, e.idBuf)
}

// haveFinished reports whether a finished, still-valid build with the given
// identity exists for the subject.
func (e *engine) haveFinished(subject int, id []byte) bool {
	idxs := e.finishedBySubject[subject]
	for k := len(idxs) - 1; k >= 0; k-- {
		if fid, valid := e.finishedIdentity(idxs[k]); valid && fid == string(id) {
			return true
		}
	}
	return false
}

// finishMetrics computes turnaround and throughput after the run.
func (e *engine) finishMetrics(w *workload.Workload) {
	var firstArrival, lastDecision time.Duration
	if len(w.Changes) > 0 {
		firstArrival = w.Changes[0].SubmitAt
	}
	if e.cfg.Classes != nil {
		e.res.TurnaroundByClassMin = make(map[int][]float64)
	}
	e.res.DecidedAtMin = make([]float64, len(w.Changes))
	for _, c := range w.Changes {
		at, ok := e.decidedAt[c.Index]
		if !ok {
			e.res.Undecided++
			e.res.DecidedAtMin[c.Index] = -1
			continue
		}
		e.res.DecidedAtMin[c.Index] = at.Minutes()
		if at > lastDecision {
			lastDecision = at
		}
		turn := (at - c.SubmitAt).Minutes()
		e.res.TurnaroundAllMin = append(e.res.TurnaroundAllMin, turn)
		if e.cfg.Classes != nil {
			cl := 0
			if c.Index < len(e.cfg.Classes) {
				cl = e.cfg.Classes[c.Index]
			}
			e.res.TurnaroundByClassMin[cl] = append(e.res.TurnaroundByClassMin[cl], turn)
		}
		if e.st.committed[c.Index] {
			e.res.TurnaroundCommittedMin = append(e.res.TurnaroundCommittedMin, turn)
		}
	}
	e.res.Makespan = lastDecision - firstArrival
	if e.res.Makespan > 0 {
		e.res.ThroughputPerHour = float64(e.res.Committed) / e.res.Makespan.Hours()
	}
	// Useful/wasted split: finished builds that decided a change were useful;
	// every other finished build was speculation that never paid off. Abort
	// and drop sites accumulated their waste as it happened.
	for k := range e.st.Finished {
		if e.st.Finished[k].used {
			e.res.WorkerBusyUseful += e.st.Finished[k].Cost
		} else {
			e.res.WorkerBusyWasted += e.st.Finished[k].Cost
		}
	}
	if e.res.Committed > 0 {
		e.res.WorkerMinutesPerCommit = e.res.WorkerBusy.Minutes() / float64(e.res.Committed)
	}
	e.res.CommittedChanges = append([]int(nil), e.st.Committed...)
}
