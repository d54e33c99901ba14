// Package strategies implements the scheduling approaches compared in §8:
//
//   - Oracle: perfectly predicts every outcome; schedules exactly the n
//     builds that will be needed. The normalization baseline.
//   - SingleQueue: Bors-style — one change at a time per conflict component;
//     independent changes proceed in parallel.
//   - Optimistic: Zuul-style — every pending change builds assuming all its
//     pending conflicting predecessors succeed.
//   - SpeculateAll: the §4.1 strawman — enumerate the speculation graph
//     assuming every build succeeds with probability 50%.
//   - SubmitQueue: the paper's system — probabilistic speculation driven by
//     a predictor (trained logistic regression in production).
//   - Batch: the §10 "batching independent changes" extension and the
//     Chromium commit-queue baseline — group changes, build the whole batch,
//     bisect on failure.
//
// All of them plan over sim.State and reuse the real speculation engine
// where applicable, so the evaluation exercises the same code path as the
// live service.
package strategies

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/predict"
	"mastergreen/internal/sched"
	"mastergreen/internal/sim"
	"mastergreen/internal/speculation"
	"mastergreen/internal/workload"
)

// SimEpoch anchors the simulator's virtual clock to wall-clock types: a
// change whose deadline is D minutes of virtual time carries
// Meta.Deadline = SimEpoch.Add(D), and sched policies evaluate urgency
// against SimEpoch.Add(st.Now).
var SimEpoch = time.Unix(0, 0).UTC()

// Oracle schedules, for every pending change, the exact build whose
// assumptions will come true, using the workload's scheduling-independent
// eventual outcomes (§8: "Our Oracle implementation can perfectly predict
// the outcome of a change").
type Oracle struct {
	Eventual []bool // EventualOutcomes of the workload
}

// NewOracle builds an Oracle strategy for the workload.
func NewOracle(w *workload.Workload) *Oracle {
	return &Oracle{Eventual: w.EventualOutcomes()}
}

// Name implements sim.Strategy.
func (o *Oracle) Name() string { return "Oracle" }

// Plan implements sim.Strategy.
func (o *Oracle) Plan(st *sim.State) []sim.BuildSpec {
	var out []sim.BuildSpec
	for _, i := range planWindow(st) {
		var assumed, rejected []int
		for _, j := range st.PendingConflictingPredecessors(i) {
			if o.Eventual[j] {
				assumed = append(assumed, j)
			} else {
				rejected = append(rejected, j)
			}
		}
		out = append(out, sim.BuildSpec{
			Subject:         i,
			Assumed:         assumed,
			AssumedRejected: rejected,
			Priority:        -float64(i), // oldest first
		})
	}
	return out
}

// SingleQueue processes conflicting changes strictly one at a time; only
// changes with no pending conflicting predecessor build (so independent
// changes still run in parallel, as in §8's description).
type SingleQueue struct{}

// Name implements sim.Strategy.
func (SingleQueue) Name() string { return "Single-Queue" }

// Plan implements sim.Strategy.
func (SingleQueue) Plan(st *sim.State) []sim.BuildSpec {
	var out []sim.BuildSpec
	for _, i := range st.Pending {
		if st.HasPendingConflictingPredecessor(i) {
			continue
		}
		out = append(out, sim.BuildSpec{Subject: i, Priority: -float64(i)})
	}
	return out
}

// Optimistic assumes every pending change will succeed: each change builds
// on top of all its pending conflicting predecessors (Zuul). A failure
// invalidates every downstream build, which the engine aborts on the next
// reconcile.
type Optimistic struct{}

// Name implements sim.Strategy.
func (Optimistic) Name() string { return "Optimistic" }

// Plan implements sim.Strategy.
func (Optimistic) Plan(st *sim.State) []sim.BuildSpec {
	var out []sim.BuildSpec
	for _, i := range planWindow(st) {
		out = append(out, sim.BuildSpec{
			Subject:  i,
			Assumed:  st.PendingConflictingPredecessors(i),
			Priority: -float64(i),
		})
	}
	return out
}

// planWindow bounds the pending prefix worth planning. Without the conflict
// analyzer every pair conflicts, so changes beyond the first
// workers+slack positions cannot run a useful build yet (their speculation
// chain exceeds the worker pool); planning over the full multi-thousand
// backlog would only add O(p²) work. With the analyzer the full pending set
// is planned.
func planWindow(st *sim.State) []int {
	if st.UseAnalyzer {
		return st.Pending
	}
	lim := st.Workers + 64
	if len(st.Pending) <= lim {
		return st.Pending
	}
	return st.Pending[:lim]
}

// Speculative runs the real speculation engine over the pending set; the
// predictor decides the flavor: Static{0.5} reproduces Speculate-all, a
// trained or oracle predictor reproduces SubmitQueue.
//
// A Speculative instance carries per-run speculation-feedback state and must
// not be shared across sim.Run calls.
type Speculative struct {
	Label  string
	Engine *speculation.Engine
	W      *workload.Workload

	// feedback implements §7.2's dynamic features ("the number of
	// speculations that succeeded or failed were also included"): observed
	// build outcomes shift the per-change success logit, so a change whose
	// speculative builds keep failing quickly loses speculation priority
	// even when its static features look healthy. Nil for strategies that
	// do not adapt (Speculate-all).
	feedback *feedback
	scanned  int // st.Finished prefix already folded into feedback

	// ReorderSmall enables the §10 change-reordering extension: a pending
	// change whose own build is at most reorderRatio of the total expected
	// build time of its pending conflicting predecessors additionally gets a
	// no-assumption build that may commit ahead of them. Commit order among
	// conflicting changes then deviates from submission order (the paper's
	// noted fairness trade-off), but the mainline stays green.
	ReorderSmall bool

	// SkippedBranches accumulates the speculation branch points collapsed by
	// Engine.SkipThreshold across the run (DESIGN.md §4j); experiments read it
	// after sim.Run to report how much of the tree was never built.
	// SkippedBuilds accumulates nodes dropped outright because the predictor
	// was confident their result would never be used (P_needed ≤ 1−τ).
	SkippedBranches int
	SkippedBuilds   int

	// Sched, when non-nil, turns on priority-lane planning (DESIGN.md §4l):
	// each pending change's Class/Deadline (on its workload Meta, with
	// deadlines anchored at SimEpoch) becomes a weight multiplied into the
	// engine's value function and a τ-gating exemption for the P0 lane, and
	// each build's sim priority becomes its *weighted* value — so the sim's
	// worker preemption implements the hotfix lane displacing running
	// speculative builds. Nil reproduces the unprioritized planner exactly.
	Sched *sched.Policy

	// Plan's working set, reused from call to call: the engine's view of the
	// window (pending, preds rows cut from predArena, pos mapping a workload
	// index to its window position) and the returned specs, whose assumption
	// lists are cut from specArena. The specs are therefore valid until the
	// next Plan call, which is all sim.Strategy promises.
	pending   []*change.Change
	pos       []int
	preds     [][]int
	predArena []int
	specs     []sim.BuildSpec
	specArena []int
}

// feedback accumulates per-change speculation evidence.
type feedback struct {
	succ map[*change.Change]float64
	fail map[*change.Change]float64
}

// logit weights for one unit of speculation evidence. A failed build is
// discounted by its assumption count (the failure may be an assumed
// predecessor's fault, not the subject's).
const (
	fbSuccWeight = 1.2
	fbFailWeight = 2.5
)

// feedbackPredictor adjusts the inner model's P_succ with observed
// speculation outcomes (Bayes-style logit shift); P_conf passes through.
type feedbackPredictor struct {
	inner predict.Predictor
	fb    *feedback
}

// PredictSuccess implements predict.Predictor.
func (f feedbackPredictor) PredictSuccess(c *change.Change) float64 {
	p := f.inner.PredictSuccess(c)
	s, fl := f.fb.succ[c], f.fb.fail[c]
	if s == 0 && fl == 0 {
		return p
	}
	if p <= 0 || p >= 1 {
		return p // a certain predictor (the Oracle) needs no evidence
	}
	z := math.Log(p/(1-p)) + fbSuccWeight*s - fbFailWeight*fl
	return predict.Sigmoid(z)
}

// PredictConflict implements predict.Predictor.
func (f feedbackPredictor) PredictConflict(a, b *change.Change) float64 {
	return f.inner.PredictConflict(a, b)
}

// NewSpeculateAll returns the §4.1 speculate-everything baseline.
func NewSpeculateAll(w *workload.Workload) *Speculative {
	return &Speculative{
		Label:  "Speculate-all",
		Engine: speculation.New(predict.Static{Success: 0.5, Conflict: 0}),
		W:      w,
	}
}

// NewSubmitQueue returns the paper's system with the given predictor.
// Static predictions are memoized per change/pair (feature vectors never
// change within a simulated workload); on top of them, speculation feedback
// (§7.2's dynamic features) adapts P_succ as builds finish.
func NewSubmitQueue(w *workload.Workload, p predict.Predictor) *Speculative {
	fb := &feedback{succ: map[*change.Change]float64{}, fail: map[*change.Change]float64{}}
	return &Speculative{
		Label:    "SubmitQueue",
		Engine:   speculation.New(feedbackPredictor{inner: newMemoPredictor(p), fb: fb}),
		W:        w,
		feedback: fb,
	}
}

// memoPredictor caches predictions keyed by change pointers; safe because
// sim-side feature vectors never change after workload generation.
type memoPredictor struct {
	inner predict.Predictor
	succ  map[*change.Change]float64
	conf  map[[2]*change.Change]float64
}

func newMemoPredictor(p predict.Predictor) *memoPredictor {
	return &memoPredictor{
		inner: p,
		succ:  map[*change.Change]float64{},
		conf:  map[[2]*change.Change]float64{},
	}
}

// PredictSuccess implements predict.Predictor.
func (m *memoPredictor) PredictSuccess(c *change.Change) float64 {
	if v, ok := m.succ[c]; ok {
		return v
	}
	v := m.inner.PredictSuccess(c)
	m.succ[c] = v
	return v
}

// PredictConflict implements predict.Predictor.
func (m *memoPredictor) PredictConflict(a, b *change.Change) float64 {
	k := [2]*change.Change{a, b}
	if a.ID > b.ID {
		k = [2]*change.Change{b, a}
	}
	if v, ok := m.conf[k]; ok {
		return v
	}
	v := m.inner.PredictConflict(a, b)
	m.conf[k] = v
	return v
}

// Name implements sim.Strategy.
func (s *Speculative) Name() string { return s.Label }

// Plan implements sim.Strategy.
func (s *Speculative) Plan(st *sim.State) []sim.BuildSpec {
	// Fold newly finished builds into the speculation-feedback state.
	if s.feedback != nil {
		for ; s.scanned < len(st.Finished); s.scanned++ {
			fb := st.Finished[s.scanned]
			if len(fb.Spec.Batch) > 0 {
				continue
			}
			subj := s.W.Changes[fb.Spec.Subject].Meta
			if fb.OK {
				s.feedback.succ[subj]++
			} else {
				// A failed build blames the subject with confidence inverse
				// to how much it assumed.
				s.feedback.fail[subj] += 1 / float64(1+len(fb.Spec.Assumed))
			}
		}
	}
	if len(st.Pending) == 0 {
		return nil
	}
	// Assemble the engine's view: pending change metas plus the conflicting
	// predecessors the analyzer reports, as positions into the pending list.
	window := planWindow(st)
	// slices.Grow(buf[:0], n)[:n] is buf resized to n, reallocated only when
	// too small; every element is overwritten below.
	pending := slices.Grow(s.pending[:0], len(window))[:len(window)]
	// pos[i] is the window position of workload index i; an entry left over
	// from an earlier call is told apart by window[pos[i]] != i.
	if s.pos == nil {
		s.pos = make([]int, len(s.W.Changes))
	}
	pos := s.pos
	for k, i := range window {
		pending[k] = s.W.Changes[i].Meta
		pos[i] = k
	}
	preds, arena := slices.Grow(s.preds[:0], len(window))[:len(window)], s.predArena[:0]
	if st.UseAnalyzer {
		for k, i := range window {
			lo := len(arena)
			for j := range s.W.Changes[i].PotentialConflicts {
				if j < i {
					if pj := pos[j]; pj < len(window) && window[pj] == j {
						arena = append(arena, pj)
					}
				}
			}
			sort.Ints(arena[lo:])
			preds[k] = arena[lo:len(arena):len(arena)]
		}
	} else {
		// Every earlier pending change conflicts, so each row is a run of
		// consecutive window positions. The speculation engine only branches
		// over the most recent MaxSpecDepth anyway, and in this saturated
		// regime P_commit estimates are insensitive to predecessors beyond a
		// small window — so cap the list and keep planning O(p·window)
		// instead of O(p²).
		arena = slices.Grow(arena, len(window))[:len(window)]
		for k := range window {
			arena[k] = k
			lo := k - 2*speculation.DefaultMaxSpecDepth
			if lo < 0 {
				lo = 0
			}
			preds[k] = arena[lo:k:k]
		}
	}
	s.pending, s.preds, s.predArena = pending, preds, arena
	var weights []float64
	var noSkip []bool
	if s.Sched != nil {
		weights, noSkip = s.Sched.Weights(pending, SimEpoch.Add(st.Now))
	}
	plan := s.Engine.Plan(speculation.Request{
		Pending: pending,
		Preds:   preds,
		Budget:  st.Workers,
		Weights: weights,
		NoSkip:  noSkip,
	})
	s.SkippedBranches += plan.BranchesSkipped
	s.SkippedBuilds += plan.BuildsSkipped
	out, arena := s.specs[:0], s.specArena[:0]
	// mapped appends the workload indices of the window positions idx to the
	// arena and returns that run (nil when empty).
	mapped := func(idx []int) []int {
		if len(idx) == 0 {
			return nil
		}
		lo := len(arena)
		for _, k := range idx {
			arena = append(arena, window[k])
		}
		return arena[lo:len(arena):len(arena)]
	}
	for i := range plan.Builds {
		b := &plan.Builds[i]
		prio := b.PNeeded
		if weights != nil {
			// Weighted value, not P_needed: a P0's build must outrank — and
			// preempt — every other lane's at the worker pool.
			prio = b.Value
		}
		out = append(out, sim.BuildSpec{
			Subject:         window[b.SubjectIdx],
			Assumed:         mapped(b.AssumedIdx),
			AssumedRejected: mapped(b.AssumedRejectedIdx),
			Priority:        prio,
		})
	}
	s.specs, s.specArena = out, arena
	if weights != nil {
		// Hotfix bypass: a P0 gated behind pending conflicting predecessors
		// would otherwise wait for its whole predecessor cascade to build
		// and decide — worker-pool-bound under a deep backlog, exactly when
		// the hotfix is most urgent. Instead the P0 lane jumps the queue:
		// one reorder build against bare master, committed ahead of the
		// work in front of it. The green invariant survives out-of-order
		// commits for free — a displaced predecessor's finished builds no
		// longer normalize against the moved master, so it rebuilds on top
		// of the hotfix and a real conflict turns into its rejection, never
		// a red master. The cost (invalidated predecessor speculation) is
		// the preemption the P0 lane exists to spend.
		var bypass []sim.BuildSpec
		for k, c := range pending {
			if c.Class != change.ClassHotfix {
				continue
			}
			i := window[k]
			if len(st.PendingConflictingPredecessors(i)) == 0 {
				continue // the ordinary plan already decides it first
			}
			bypass = append(bypass, sim.BuildSpec{
				Subject:      i,
				AllowReorder: true,
				Priority:     s.Sched.ClassWeight(change.ClassHotfix),
			})
		}
		out = append(bypass, out...)
	}
	if s.ReorderSmall {
		out = append(out, s.reorderSpecs(st)...)
	}
	return out
}

// reorderRatio is ReorderSmall's size threshold: a change is reordered when
// its own build takes at most this fraction of the conflicting work ahead.
const reorderRatio = 0.5

// reorderSpecs synthesizes §10 reorder builds: for each pending change much
// smaller than the conflicting work ahead of it, a no-assumption build that
// may commit immediately.
func (s *Speculative) reorderSpecs(st *sim.State) []sim.BuildSpec {
	var out []sim.BuildSpec
	for _, i := range st.Pending {
		preds := st.PendingConflictingPredecessors(i)
		if len(preds) == 0 {
			continue // the ordinary plan already decides it
		}
		var ahead float64
		for _, j := range preds {
			ahead += s.W.Changes[j].Duration.Minutes()
		}
		own := s.W.Changes[i].Duration.Minutes()
		if own > reorderRatio*ahead {
			continue
		}
		out = append(out, sim.BuildSpec{
			Subject:      i,
			AllowReorder: true,
			Priority:     0.9, // hedge: high but below certain decisive builds
		})
	}
	return out
}

// Batch groups up to BatchSize ready changes per conflict component and
// builds them as one unit; on failure it bisects the batch (Chromium
// commit-queue). With BatchSize 1 it degenerates to SingleQueue.
type Batch struct {
	BatchSize int
}

// Name implements sim.Strategy.
func (b *Batch) Name() string { return fmt.Sprintf("Batch-%d", b.size()) }

func (b *Batch) size() int {
	if b.BatchSize < 1 {
		return 4 // zero value: the Chromium CQ's default group size
	}
	return b.BatchSize
}

// Plan implements sim.Strategy.
func (b *Batch) Plan(st *sim.State) []sim.BuildSpec {
	// Attributed failures first: when the build system identified the batch
	// member that failed (FailedMember — the real path's
	// Result.FailedTarget), that change is evicted to build alone and its
	// innocent batchmates re-batch at full size, instead of everyone paying
	// the blind halving cascade.
	solo := b.evicted(st)
	// Group ready changes greedily: a change joins the current batch if it
	// has no pending conflicting predecessor outside the batch.
	var out []sim.BuildSpec
	curSet := map[int]bool{}
	var cur []int
	flush := func() {
		if len(cur) == 0 {
			return
		}
		batch := append([]int(nil), cur...)
		out = append(out, sim.BuildSpec{
			Subject:  batch[len(batch)-1],
			Batch:    batch,
			Priority: -float64(batch[0]),
		})
		cur = nil
		curSet = map[int]bool{}
	}
	for _, i := range st.Pending {
		if solo[i] {
			// The evicted member builds alone — decisively, so only once its
			// own conflicting predecessors are resolved.
			if !st.HasPendingConflictingPredecessor(i) {
				out = append(out, sim.BuildSpec{Subject: i, Priority: -float64(i)})
			}
			continue
		}
		// A change may only join the batch that already contains all of its
		// pending conflicting predecessors; cross-batch dependencies would
		// break atomic batch commits.
		ready := true
		for _, j := range st.PendingConflictingPredecessors(i) {
			if !curSet[j] {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		// A failed batch containing i means we must split: fall back to
		// smaller batches after a recent failure.
		cur = append(cur, i)
		curSet[i] = true
		if len(cur) >= b.effectiveSize(st, cur) {
			flush()
		}
	}
	flush()
	return out
}

// evicted returns the still-pending members recent failed batches attribute
// their failure to: each builds as a singleton whose failure rejects only
// itself.
func (b *Batch) evicted(st *sim.State) map[int]bool {
	solo := map[int]bool{}
	for k := len(st.Finished) - 1; k >= 0 && k >= len(st.Finished)-64; k-- {
		fb := st.Finished[k]
		if fb.OK || len(fb.Spec.Batch) < 2 || fb.FailedMember < 0 {
			continue
		}
		if st.IsPending(fb.FailedMember) {
			solo[fb.FailedMember] = true
		}
	}
	return solo
}

// effectiveSize implements bisect-on-failure: a change that appeared in a
// failed batch build may only join a batch half that batch's size, so
// repeated failures shrink to singletons, whose failures the engine resolves
// as terminal rejections. The halving applies even when the failure was
// attributed (the guilty member is evicted separately, see evicted):
// conflicts cluster in submission windows, so the survivors of a failed
// batch re-roll the same dice and deserve the same caution.
func (b *Batch) effectiveSize(st *sim.State, cur []int) int {
	size := b.size()
	for k := len(st.Finished) - 1; k >= 0 && k >= len(st.Finished)-64; k-- {
		fb := st.Finished[k]
		if fb.OK || len(fb.Spec.Batch) < 2 {
			continue
		}
		for _, m := range fb.Spec.Batch {
			for _, c := range cur {
				if m == c {
					half := len(fb.Spec.Batch) / 2
					if half < 1 {
						half = 1
					}
					if half < size {
						size = half
					}
				}
			}
		}
	}
	return size
}

// AdaptiveBatch is the sched-layer batching strategy (DESIGN.md §4l): it
// groups low-risk conflict-disjoint changes into one speculative build, with
// the batch size chosen online by sched.Batcher's expected-cost model over
// the predictor's success and pairwise conflict probabilities — against the
// fixed Chromium-style Batch baseline. A failed batch is bisected
// automatically: the attributed guilty member is evicted to build alone,
// otherwise the halves re-enqueue as batches, either way at the failed
// batch's inherited priority.
//
// An AdaptiveBatch instance carries per-run bisection state and must not be
// shared across sim.Run calls.
type AdaptiveBatch struct {
	W *workload.Workload
	// B sizes batches; zero fields fall back to sched's defaults.
	B sched.Batcher

	pred predict.Predictor

	// forced maps a change index to the group it must build with: pinned
	// planner groups (kept stable while they pend) and bisection fragments
	// of failed batches.
	forced  map[int]*abFragment
	scanned int // st.Finished prefix already folded

	// obsFail/predFail accumulate observed vs predicted failure mass over
	// this run's finished builds, driving calibration().
	obsFail  float64
	predFail float64

	// Evictions counts attributed guilty-member evictions; Halvings counts
	// unattributed halving splits. The ablation-sched experiment reports
	// both.
	Evictions int
	Halvings  int
}

// abFragment is one piece of a bisected batch, re-enqueued at the parent
// build's priority.
type abFragment struct {
	members []int
	prio    float64
}

// NewAdaptiveBatch builds the strategy with memoized predictions.
func NewAdaptiveBatch(w *workload.Workload, p predict.Predictor, b sched.Batcher) *AdaptiveBatch {
	return &AdaptiveBatch{
		W:      w,
		B:      b,
		pred:   newMemoPredictor(p),
		forced: map[int]*abFragment{},
	}
}

// Name implements sim.Strategy.
func (a *AdaptiveBatch) Name() string { return "Adaptive-Batch" }

// Plan implements sim.Strategy.
func (a *AdaptiveBatch) Plan(st *sim.State) []sim.BuildSpec {
	a.fold(st)

	// Ready = no pending conflicting predecessors at all. Members of one
	// batch are therefore pairwise analyzer-disjoint (if i<j conflicted, j
	// would have i as a pending predecessor), which is what lets the whole
	// batch commit atomically without assumption chains.
	// Running batches are pinned: re-emitting a running build's exact spec
	// keeps it in the desired set, while regrouping its members (because a
	// neighbor decided or calibration moved) would change the desired
	// build's identity and churn-abort work that was on track. The pin set
	// is rebuilt from st.Running each plan — only work actually on a
	// worker is protected; everything queued regroups freely.
	pinnedRun := map[int]int{} // member -> st.Running index
	for ri, rb := range st.Running {
		if len(rb.Spec.Batch) > 1 {
			for _, m := range rb.Spec.Batch {
				pinnedRun[m] = ri
			}
		}
	}

	var out []sim.BuildSpec
	emitted := map[*abFragment]bool{}
	emittedRun := map[int]bool{}
	var free []int
	blocked := false
	for _, i := range st.Pending {
		if st.HasPendingConflictingPredecessor(i) {
			blocked = true
			continue
		}
		if fr := a.forced[i]; fr != nil {
			if !emitted[fr] {
				emitted[fr] = true
				out = append(out, a.fragmentSpec(st, fr))
			}
			continue
		}
		if ri, ok := pinnedRun[i]; ok {
			if !emittedRun[ri] {
				emittedRun[ri] = true
				out = append(out, st.Running[ri].Spec)
			}
			continue
		}
		free = append(free, i)
	}

	// Effective success folds two corrections into the batcher's view.
	//
	// Doom risk: a ready change whose potential-conflict partner already
	// committed can fail its build no matter how reliable it is in
	// isolation — the predictor's isolated P_succ is blind to exactly the
	// members that poison large batches. Discounting by the predicted
	// no-conflict probability against every committed partner pushes the
	// doomed below the batcher's MinSucc floor, so they build alone and
	// their failure never taxes innocents.
	//
	// Calibration: a logistic model saturates well below the true success
	// rate of genuinely reliable traffic (it cannot say 0.999 from these
	// features), and the inflated per-member failure rate caps the cost
	// model's batch size far under what the traffic supports. calibration()
	// rescales the predicted failure mass by the observed-vs-predicted
	// failure ratio of this run's own finished builds — the "adaptive" in
	// adaptive batching.
	beta := a.calibration()
	pSucc := func(i int) float64 {
		p := 1 - (1-a.pred.PredictSuccess(a.W.Changes[i].Meta))*beta
		for j := range a.W.Changes[i].PotentialConflicts {
			if st.IsCommitted(j) {
				p *= 1 - beta*a.pred.PredictConflict(a.W.Changes[i].Meta, a.W.Changes[j].Meta)
			}
		}
		if p < 0 {
			p = 0
		}
		return p
	}
	// The pairwise term consults the analyzer before the model: a conflict
	// requires overlapping build targets, so for an analyzer-disjoint pair
	// the true probability is zero and the model's logistic floor (~1% on
	// any pair, from features alone) is pure noise — accumulated over a
	// batch's O(k²) pairs it would stall growth long before the traffic
	// warrants it. Only analyzer-flagged pairs get the model's (calibrated)
	// estimate. Ready candidates are pairwise disjoint by construction, so
	// in practice this term prices fragments and future non-disjoint
	// groupings, not the main batch run.
	pConf := func(i, j int) float64 {
		if _, flagged := a.W.Changes[i].PotentialConflicts[j]; !flagged {
			return 0
		}
		return beta * a.pred.PredictConflict(a.W.Changes[i].Meta, a.W.Changes[j].Meta)
	}
	// Safest-first ordering: the batcher partitions candidates in the
	// given order, and a below-floor member flushes the batch being grown.
	// Sorted by effective success, risky candidates cluster at the tail in
	// their own small groups instead of cutting healthy runs short.
	sort.SliceStable(free, func(x, y int) bool {
		px, py := pSucc(free[x]), pSucc(free[y])
		if px != py {
			return px > py
		}
		return free[x] < free[y]
	})
	// Pooling: when running builds will commit members whose completion
	// unblocks more candidates, a small group is held back rather than
	// built — it can only grow, and a build spent on two changes now is a
	// build not spent on twelve a cycle later. Risky singletons are exempt
	// (their dedicated build is inevitable, so it may as well use idle
	// capacity), and the hold lifts the moment nothing is running or
	// nothing is left to unblock, so the queue always drains.
	mb := a.B.MaxBatch
	if mb <= 0 {
		mb = 16
	}
	ms := a.B.MinSucc
	if ms <= 0 {
		ms = 0.5
	}
	pool := blocked && len(st.Running) > 0
	for _, group := range a.B.Plan(free, pSucc, pConf) {
		if pool && len(group) < mb/2 && !(len(group) == 1 && pSucc(group[0]) < ms) {
			continue
		}
		out = append(out, groupSpec(group, -float64(group[0])))
	}
	return out
}

// calibration returns the multiplier applied to predicted failure mass:
// observed failures over predicted failures across this run's finished
// builds, smoothed with one pseudo-failure so an early lucky streak cannot
// collapse it to zero, and clamped to [1/8, 4]. Reliable traffic drives it
// below 1, letting batches grow toward what outcomes justify; a model that
// is too optimistic drives it above 1 and shrinks them.
func (a *AdaptiveBatch) calibration() float64 {
	if a.predFail < 2 {
		return 1
	}
	beta := (a.obsFail + 1) / (a.predFail + 1)
	if beta < 0.125 {
		beta = 0.125
	}
	if beta > 4 {
		beta = 4
	}
	return beta
}

// fold ingests newly finished builds: each failed multi-member batch is
// bisected (guilty eviction when attributed, halving otherwise) and the
// fragments pinned so members re-build together at inherited priority.
func (a *AdaptiveBatch) fold(st *sim.State) {
	for ; a.scanned < len(st.Finished); a.scanned++ {
		fb := st.Finished[a.scanned]
		// Calibration bookkeeping, on multi-member batch builds only: their
		// failure rate is exactly what the cost model predicts from member
		// success and pair conflict mass. Singleton builds are excluded —
		// retries, verification re-runs, and doom-exiled members fail for
		// reasons the isolated predictions never modeled, and folding those
		// in would push the calibration the wrong way.
		if len(fb.Spec.Batch) > 1 {
			pOK := 1.0
			for _, m := range fb.Spec.Batch {
				pOK *= a.pred.PredictSuccess(a.W.Changes[m].Meta)
				// Doom mass vs already-committed flagged partners, the same
				// failure mode the planning closure discounts — predicted and
				// observed mass must cover identical modes or the ratio
				// drifts. Commit state at fold time slightly postdates the
				// build's start; the overcount is second-order.
				for j := range a.W.Changes[m].PotentialConflicts {
					if st.IsCommitted(j) {
						pOK *= 1 - a.pred.PredictConflict(a.W.Changes[m].Meta, a.W.Changes[j].Meta)
					}
				}
			}
			// Pair mass only for analyzer-flagged intra-batch pairs,
			// mirroring the Plan closure: disjoint pairs cannot conflict, so
			// folding the model's logistic floor for them would inflate the
			// predicted mass the calibration divides by.
			for x := 0; x < len(fb.Spec.Batch); x++ {
				for y := x + 1; y < len(fb.Spec.Batch); y++ {
					bx, by := fb.Spec.Batch[x], fb.Spec.Batch[y]
					if a.W.Changes[bx].PotentialConflicts[by] {
						pOK *= 1 - a.pred.PredictConflict(a.W.Changes[bx].Meta, a.W.Changes[by].Meta)
					}
				}
			}
			a.predFail += 1 - pOK
			if !fb.OK {
				a.obsFail++
			}
		}
		if fb.OK || len(fb.Spec.Batch) < 2 {
			continue
		}
		guilty := -1
		for p, m := range fb.Spec.Batch {
			if m == fb.FailedMember {
				guilty = p
				break
			}
		}
		if guilty >= 0 {
			a.Evictions++
		} else {
			a.Halvings++
		}
		for _, part := range a.B.Bisect(fb.Spec.Batch, guilty) {
			fr := &abFragment{members: part, prio: fb.Spec.Priority}
			for _, m := range part {
				a.forced[m] = fr
			}
		}
	}
}

// fragmentSpec renders a bisection fragment, dropping members decided since
// the split.
func (a *AdaptiveBatch) fragmentSpec(st *sim.State, fr *abFragment) sim.BuildSpec {
	live := make([]int, 0, len(fr.members))
	for _, m := range fr.members {
		if st.IsPending(m) {
			live = append(live, m)
		}
	}
	return groupSpec(live, fr.prio)
}

// groupSpec renders one conflict-disjoint group: a plain build for a
// singleton (its failure is a terminal rejection), an atomic batch
// otherwise.
func groupSpec(members []int, prio float64) sim.BuildSpec {
	if len(members) == 1 {
		return sim.BuildSpec{Subject: members[0], Priority: prio}
	}
	return sim.BuildSpec{
		Subject:  members[len(members)-1],
		Batch:    append([]int(nil), members...),
		Priority: prio,
	}
}

// Interface checks.
var (
	_ sim.Strategy = (*Oracle)(nil)
	_ sim.Strategy = SingleQueue{}
	_ sim.Strategy = Optimistic{}
	_ sim.Strategy = (*Speculative)(nil)
	_ sim.Strategy = (*Batch)(nil)
	_ sim.Strategy = (*AdaptiveBatch)(nil)
)
