package main

import (
	"fmt"
	"math/rand"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/metrics"
	"mastergreen/internal/reliability"
	"mastergreen/internal/repo"
)

// build_bound: an open loop on the wall clock. Changes arrive on a fixed
// schedule drawn from the seed — one arrival at a random instant of every
// 1/rate slot — each timed from its due time; every step-unit sleeps 40 ms
// and 2 % of them suffer an injected transient fault. (Under a Poisson
// schedule of this length the bursts a seed happens to hold move
// builds_per_commit and allocation by +-8 % between seeds; the slotted
// schedule keeps the load open-loop and irregular and holds that to +-1.5 %.)
// Eight subtrees make the conflict chains deep enough that a change waits
// for its predecessors' builds, so speculation quality, abort/prune and the
// reliability layer decide the result; the service's own CPU barely matters.
// It runs the classic single planner behind the background epoch loop — the
// sqd default — where window_deep runs the sharded runtime stepped by hand.
const (
	bbSubtrees             = 8
	bbWorkers              = 8
	bbUnitDelay            = 40 * time.Millisecond
	bbEpoch                = 2 * time.Millisecond
	bbFaultRate            = 0.02
	bbMaxPending           = 4096
	bbQuarantineMinSamples = 1000
	// bbRate is arrivals per second: the offered load, and with --seconds
	// the arrival count.
	bbRate = 30.0
)

var bbSteps = []change.BuildStep{{Name: "compile", Kind: change.StepCompile}}

type boundRun struct {
	p       params
	svc     *core.Service
	bus     *events.Bus
	pred    *countingPredictor // traced runs only
	initial map[string]string
	edits   []edit
	due     []time.Duration // arrival offsets from the run's origin
	origin  time.Time
	next    int
	lateMs  []float64
	g       guard
}

// arrive submits every arrival up to index end, each no earlier than its due
// time.
func (b *boundRun) arrive(end int, parent int) error {
	tr := b.p.tr
	for ; b.next < end; b.next++ {
		due := b.origin.Add(b.due[b.next])
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		b.lateMs = append(b.lateMs, ms(time.Since(due)))
		e := b.edits[b.next]
		sp := tr.begin("core.Submit", e.id, parent)
		err := b.svc.Submit(e.change(bbSteps))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("submit %s: %w", e.id, err)
		}
		if err := b.g.check(b.next + 1 - b.svc.OutcomeCount()); err != nil {
			b.next++
			return err
		}
	}
	return nil
}

func setupBuildBound(p params, warm, measured int) (*boundRun, error) {
	n := warm + measured
	b := &boundRun{p: p}
	b.initial = benchFiles(p.seed, bbSubtrees)
	b.edits = genEdits(p.seed, "b", n, bbSubtrees)
	rng := rand.New(rand.NewSource(p.seed*7919 + 3))
	b.due = make([]time.Duration, n)
	for i := range b.due {
		b.due[i] = time.Duration((float64(i) + rng.Float64()) / bbRate * float64(time.Second))
	}
	b.bus = events.NewBus(1024)
	var cfg core.Config
	b.pred, cfg = withTracedPredictor(p, core.Config{
		Workers: bbWorkers, Epoch: bbEpoch, Events: b.bus,
		Runner: newStepRunner(bbUnitDelay, p.commitBroken),
		FaultInjector: reliability.NewInjector(nil, rand.New(rand.NewSource(p.seed)),
			reliability.InjectorConfig{DefaultTransientRate: bbFaultRate}),
		// With the default of 20 samples, two flakes among the first twenty
		// units — one seed in ten at a 2 % fault rate — quarantine the only
		// step kind for the rest of the run; every rejection then needs a
		// verification re-run and the run becomes a different workload. The
		// quarantine decision is held back until the flake rate is an estimate.
		Reliability: reliability.Config{QuarantineMinSamples: bbQuarantineMinSamples},
	})
	b.svc = core.NewService(repo.New(b.initial), cfg)
	b.g = newGuard(b.due[n-1]+5*time.Second, bbMaxPending)
	b.svc.Start()
	b.origin = time.Now()
	if err := b.arrive(warm, -1); err != nil {
		b.svc.Stop()
		return nil, err
	}
	return b, nil
}

func runBuildBound(p params) (*result, error) {
	r := newResult(p)
	measured := p.count(bbRate, 12)
	warm := warmUp(measured, 4)
	n := warm + measured

	start := time.Now()
	b, err := setupBuildBound(p, warm, measured)
	if err != nil {
		return nil, err
	}
	defer b.svc.Stop()
	r.e2e["setup_s"] = time.Since(start).Seconds()

	var stages *stageWatch
	if p.tr != nil {
		stages = watchStages(b.bus, p.tr)
	}
	// The section counts decisions, whichever changes they are of: in steady
	// state the decisions of late warm-up arrivals stand in for those of the
	// last measured arrivals, which are decided in the drain below.
	base := b.svc.OutcomeCount()
	before := readCounters(b.svc, b.bus, b.pred)
	// One segment: in an open loop a segment's decision count would follow
	// the arrival schedule, not the system's speed.
	sec := newSection(n-base, 1)
	root := p.tr.begin("build_bound.measured", "", -1)
	b.lateMs = b.lateMs[:0]
	sec.begin()
	runErr := b.arrive(n, root)
	for runErr == nil && b.svc.OutcomeCount() < n {
		time.Sleep(bbEpoch)
		runErr = b.g.check(n - b.svc.OutcomeCount())
	}
	sec.end(b.svc.OutcomeCount() - base)
	p.tr.end(root)
	b.svc.Stop()
	after := readCounters(b.svc, b.bus, b.pred)
	if stages != nil {
		stages.stop(r.layer)
	}

	outs := b.svc.Outcomes()
	idxOf := make(map[string]int, n)
	for i, e := range b.edits {
		idxOf[e.id] = i
	}
	// Turnaround is taken over the measured arrivals (not the section's
	// decisions): each from its due time to its decision.
	var turnaround []float64
	falseRejections := 0
	for _, o := range outs {
		i := idxOf[string(o.ID)]
		if o.State == change.StateRejected && !b.edits[i].broken {
			falseRejections++
		}
		if i >= warm {
			turnaround = append(turnaround, ms(o.At.Sub(b.origin.Add(b.due[i]))))
		}
	}
	fillLive(r, sec, outs[base:], before, after, false)
	fillTurnaround(r, turnaround)
	r.notes["late_p99_ms"] = fmt.Sprintf("%.3f", metrics.Percentile(b.lateMs, 99))
	r.notes["false_rejections"] = fmt.Sprint(falseRejections)
	r.notes["quarantined_kinds"] = fmt.Sprint(after.rel.QuarantinedKinds)

	r.attempted = b.next
	pending := b.next - len(outs)
	if runErr != nil {
		r.fail(pending, "build_bound: %v", runErr)
	}
	// Real time decides which speculative builds meet an injected fault, so
	// the committed set may differ between runs of a seed: an innocent change
	// the fault layer rejected is a per-layer count, not a failed operation.
	order := checkDecisions(r, b.initial, b.edits[:b.next], decisionsOf(b.svc, outs), pending, false,
		b.svc.Repo().Head().Snapshot().Range)
	r.hash, r.hashKind = hashSequence(order), "free"

	if p.tr != nil {
		fillBoundLayers(r, b, p.tr, sec, outs[base:], before, after, falseRejections)
	}
	return r, nil
}
