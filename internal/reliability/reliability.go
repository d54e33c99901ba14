// Package reliability hardens SubmitQueue against an unreliable build fleet.
// The paper's always-green guarantee (§2) assumes build steps are
// deterministic; in practice flaky tests and infrastructure hiccups are the
// dominant threat to a green mainline, and a single transient failure must
// not reject an innocent change.
//
// Three cooperating pieces (DESIGN.md §4g):
//
//   - Injector: deterministic fault injection wrapping buildsys.StepRunner —
//     transient failures, slow/stuck steps, and worker crashes — driven by an
//     injected *rand.Rand so every robustness behavior is bit-reproducible.
//   - Detector + in-place retry: outcomes are keyed by (target name, target
//     hash, step kind) — the artifact cache's content address — so a failure
//     followed by a pass on *identical inputs* is proof of flakiness, not
//     correlation. Suspect step failures are retried at once, with bounded
//     attempts and a per-epoch retry budget; step kinds whose measured flake
//     rate crosses a threshold are quarantined (they still run, but can no
//     longer solely reject a change).
//   - Planner integration: before a failed decisive build rejects its
//     change, Reliability.ShouldVerifyBuild grants one verification re-run of
//     the same request when the failing step-unit is suspect (known-flaky
//     identity, flaky kind, or quarantined kind). Quarantined failures always
//     get the re-run; they are never converted into passes, so every commit's
//     decisive build genuinely passed and the mainline stays green.
package reliability

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
)

// unitKey is the content-addressed identity of one step-unit: the same
// (target name, target hash, step kind) triple the artifact cache keys by.
// Identical keys mean identical inputs, which is what makes fail-then-pass
// proof of flakiness rather than a change in behavior.
type unitKey struct {
	Target string
	Hash   string
	Kind   change.StepKind
}

func (k unitKey) String() string {
	h := k.Hash
	if len(h) > 8 {
		h = h[:8]
	}
	return fmt.Sprintf("%s@%s/%s", k.Target, h, k.Kind)
}

// Retry and quarantine policy. A failed step-unit runs at most maxAttempts
// times per build, retried at once; BeginEpoch grants epochRetryBudget
// retries (and verification re-runs) per planner epoch. A step kind whose
// confirmed flake events over recorded units reach quarantineThreshold is
// quarantined. historyCap bounds the per-identity history map: only
// identities that have failed at least once occupy a slot.
const (
	maxAttempts         = 2
	epochRetryBudget    = 64
	quarantineThreshold = 0.1
	historyCap          = 8192
)

// Config tunes the reliability layer.
type Config struct {
	// QuarantineMinSamples is the minimum recorded units of a kind before
	// its rate is trusted (<=0: 20).
	QuarantineMinSamples int
	// Events, when non-nil, receives flaky-detected events.
	Events *events.Bus
}

// Reliability owns the detector, the retry policy state, and the planner's
// verification decisions. All methods are safe for concurrent use.
type Reliability struct {
	cfg Config

	mu          sync.Mutex
	hist        map[unitKey]*unitHistory
	kinds       map[change.StepKind]*kindTally
	quarantined map[change.StepKind]bool
	budget      int
	stats       Stats
	injector    *Injector
}

// unitHistory tracks one content-addressed step-unit identity (created on
// first failure; never-failed units only count in the kind tally).
type unitHistory struct {
	fails       int
	passes      int
	consecFails int
	flaky       bool // a pass was observed after a failure: flakiness proven
}

// kindTally aggregates per step kind for the quarantine rate.
type kindTally struct {
	units       int // recorded executions
	flakeEvents int // fail→pass transitions observed
}

// Genuineness cutoffs: two consecutive failures on identical inputs make a
// failure confirmed-genuine (no more in-place retries); four with no pass
// ever make it strongly genuine (no verification re-run either, except for
// quarantined kinds).
const (
	genuineCutoff         = 2
	stronglyGenuineCutoff = 4
)

// New creates a Reliability layer with defaults applied.
func New(cfg Config) *Reliability {
	if cfg.QuarantineMinSamples <= 0 {
		cfg.QuarantineMinSamples = 20
	}
	return &Reliability{
		cfg:         cfg,
		hist:        map[unitKey]*unitHistory{},
		kinds:       map[change.StepKind]*kindTally{},
		quarantined: map[change.StepKind]bool{},
		budget:      epochRetryBudget,
	}
}

// SetInjector attaches the fault injector whose counters Stats should merge.
func (r *Reliability) SetInjector(in *Injector) {
	r.mu.Lock()
	r.injector = in
	r.mu.Unlock()
}

// BeginEpoch refills the per-epoch retry budget; the planner calls it once
// per Tick.
func (r *Reliability) BeginEpoch() {
	r.mu.Lock()
	r.budget = epochRetryBudget
	r.mu.Unlock()
}

// Quarantine force-quarantines a step kind (operator action; also used by
// tests). Quarantined steps still run but cannot solely reject a change.
func (r *Reliability) Quarantine(kind change.StepKind) {
	r.mu.Lock()
	if !r.quarantined[kind] {
		r.quarantined[kind] = true
		r.stats.QuarantinedKinds++
	}
	r.mu.Unlock()
}

// Quarantined reports whether the kind is currently quarantined.
func (r *Reliability) Quarantined(kind change.StepKind) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quarantined[kind]
}

// Stats returns a snapshot of all reliability counters, injector included.
func (r *Reliability) Stats() Stats {
	r.mu.Lock()
	s := r.stats
	inj := r.injector
	r.mu.Unlock()
	if inj != nil {
		is := inj.Stats()
		s.InjectedTransients = is.Transients
		s.InjectedSlows = is.Slows
		s.InjectedStucks = is.Stucks
		s.InjectedCrashes = is.Crashes
	}
	return s
}

// Wrap layers the retry/detection runner over inner. A nil inner with
// nothing to perturb stays nil (buildsys's always-succeed fast path).
func (r *Reliability) Wrap(inner buildsys.StepRunner) buildsys.StepRunner {
	if inner == nil {
		return inner
	}
	return &retryRunner{r: r, inner: inner}
}

// record folds one step-unit outcome into the detector. Returns events to
// publish (computed under the lock, published outside it).
func (r *Reliability) record(key unitKey, ok bool) {
	var evs []events.Event
	r.mu.Lock()
	t := r.kinds[key.Kind]
	if t == nil {
		t = &kindTally{}
		r.kinds[key.Kind] = t
	}
	t.units++
	r.stats.UnitsRecorded++
	h := r.hist[key]
	if ok {
		if h != nil {
			h.passes++
			if h.consecFails > 0 {
				// Fail followed by pass on identical inputs: flakiness proven.
				h.consecFails = 0
				t.flakeEvents++
				r.stats.FlakesConfirmed++
				if !h.flaky {
					h.flaky = true
					r.stats.FlakyUnits++
					evs = append(evs, events.Event{
						Type:   events.TypeFlakyDetected,
						Detail: fmt.Sprintf("step-unit %s passed after failing on identical inputs", key),
					})
				}
				if !r.quarantined[key.Kind] && t.units >= r.cfg.QuarantineMinSamples &&
					float64(t.flakeEvents)/float64(t.units) >= quarantineThreshold {
					r.quarantined[key.Kind] = true
					r.stats.QuarantinedKinds++
					evs = append(evs, events.Event{
						Type: events.TypeFlakyDetected,
						Detail: fmt.Sprintf("step kind %s quarantined: flake rate %.3f over %d units",
							key.Kind, float64(t.flakeEvents)/float64(t.units), t.units),
					})
				}
			}
		}
		r.mu.Unlock()
	} else {
		if h == nil {
			if len(r.hist) < historyCap {
				h = &unitHistory{}
				r.hist[key] = h
			} else {
				r.stats.HistoryDropped++
			}
		}
		if h != nil {
			h.fails++
			h.consecFails++
			if h.consecFails == genuineCutoff {
				r.stats.GenuineFailures++
			}
		}
		r.mu.Unlock()
	}
	if r.cfg.Events != nil {
		for _, ev := range evs {
			r.cfg.Events.Publish(ev)
		}
	}
}

// allowRetry decides whether a just-failed step-unit may run again: the
// identity must not be confirmed genuine, and a budget token must be
// available. Called after the failure was recorded.
func (r *Reliability) allowRetry(key unitKey, addressable bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if addressable {
		if h := r.hist[key]; h != nil && h.consecFails >= genuineCutoff {
			r.stats.GenuineShortCircuits++
			return false
		}
	}
	if r.budget <= 0 {
		r.stats.RetryBudgetDenied++
		return false
	}
	r.budget--
	r.stats.Retries++
	return true
}

// stepKindByName finds the failing step's kind in the request's step list.
func stepKindByName(steps []change.BuildStep, name string) (change.StepKind, bool) {
	for _, s := range steps {
		if s.Name == name {
			return s.Kind, true
		}
	}
	return 0, false
}

// ShouldVerifyBuild reports whether a failed build's failing step is suspect
// enough to earn one verification re-run of the same request before the
// planner resolves the change to StateRejected. Quarantined kinds always
// qualify (quarantine means "cannot solely reject") and bypass the retry
// budget; otherwise the failing unit's identity must be known flaky — or its
// kind must have confirmed flakes — and not strongly genuine.
func (r *Reliability) ShouldVerifyBuild(req buildsys.Request, res buildsys.Result) bool {
	if r == nil || res.OK || errors.Is(res.Err, buildsys.ErrAborted) {
		return false
	}
	kind, ok := stepKindByName(req.Steps, res.FailedStep)
	if !ok {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.quarantined[kind] {
		r.stats.Verifications++
		r.stats.QuarantineVerifications++
		return true
	}
	hash := req.Targets[res.FailedTarget]
	if res.FailedTarget == "" || hash == "" {
		return false
	}
	key := unitKey{Target: res.FailedTarget, Hash: hash, Kind: kind}
	h := r.hist[key]
	if h != nil && h.consecFails >= stronglyGenuineCutoff && !h.flaky {
		return false // overwhelming evidence the failure is real
	}
	t := r.kinds[kind]
	suspect := (h != nil && h.flaky) || (t != nil && t.flakeEvents > 0)
	if !suspect {
		return false
	}
	if r.budget <= 0 {
		r.stats.RetryBudgetDenied++
		return false
	}
	r.budget--
	r.stats.Verifications++
	return true
}

// NoteAverted records that a verification re-run passed and a rejection was
// averted (the planner calls it when committing a verified build's change).
func (r *Reliability) NoteAverted() {
	r.mu.Lock()
	r.stats.RejectionsAverted++
	r.mu.Unlock()
}

// retryRunner is the StepRunner layer Wrap installs: it records every
// content-addressed outcome in the detector and retries suspect failures in
// place under the policy. Aborts (cancelled builds, injected crashes) pass
// through unrecorded — a torn-down build says nothing about the step.
type retryRunner struct {
	r     *Reliability
	inner buildsys.StepRunner
}

// RunStep implements buildsys.StepRunner (no content address available:
// outcomes are not recorded, but retries still apply).
func (w *retryRunner) RunStep(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
	return w.RunStepHash(ctx, step, target, "", snap)
}

// RunStepHash implements buildsys.StepHashRunner.
func (w *retryRunner) RunStepHash(ctx context.Context, step change.BuildStep, target, hash string, snap repo.Snapshot) error {
	key := unitKey{Target: target, Hash: hash, Kind: step.Kind}
	addressable := target != "" && hash != ""
	for attempt := 1; ; attempt++ {
		err := w.invoke(ctx, step, target, hash, snap)
		if err == nil {
			if addressable {
				w.r.record(key, true)
			}
			return nil
		}
		if errors.Is(err, buildsys.ErrAborted) || ctx.Err() != nil {
			return err
		}
		if addressable {
			w.r.record(key, false)
		}
		if attempt >= maxAttempts || !w.r.allowRetry(key, addressable) {
			return err
		}
	}
}

func (w *retryRunner) invoke(ctx context.Context, step change.BuildStep, target, hash string, snap repo.Snapshot) error {
	if hr, ok := w.inner.(buildsys.StepHashRunner); ok {
		return hr.RunStepHash(ctx, step, target, hash, snap)
	}
	return w.inner.RunStep(ctx, step, target, snap)
}
