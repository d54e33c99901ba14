package main

import (
	"context"
	"fmt"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
)

// window_deep: a closed loop that keeps a fixed window of pending changes
// and steps the service itself. Conflict analysis, partitioning and planning
// do almost all the work; there is no HTTP, no journal and builds are
// instant. 64 subtrees under 1024 pending is a conflict-chain depth of 16 —
// the regime where the pairwise structures bend.
const (
	wdSubtrees = 64
	wdWindow   = 1024
	wdShards   = 4
	wdWorkers  = 8
	// wdRate is decisions per second of --seconds; it fixes the operation
	// count, it is not a target the run is held to.
	wdRate     = 46.0
	wdSegments = 12
)

var wdSteps = []change.BuildStep{
	{Name: "compile", Kind: change.StepCompile},
	{Name: "unit", Kind: change.StepUnitTest},
}

// windowRun is one constructed and warmed-up service plus the loop state the
// measured section continues from.
type windowRun struct {
	p       params
	svc     *core.Service
	runner  stepRunner
	bus     *events.Bus
	pred    *countingPredictor // traced runs only
	initial map[string]string
	edits   []edit
	window  int
	next    int         // edits submitted so far
	sentAt  []time.Time // per edit: when it was submitted
	g       guard
}

func (w *windowRun) decided() int { return w.svc.OutcomeCount() }

// step tops the window up, runs one synchronous epoch and waits for the
// builds it started.
func (w *windowRun) step(ctx context.Context, parent int) error {
	tr := w.p.tr
	for w.next-w.decided() < w.window && w.next < len(w.edits) {
		e := w.edits[w.next]
		c := e.change(wdSteps)
		w.sentAt[w.next] = time.Now()
		sp := tr.begin("core.Submit", e.id, parent)
		err := w.svc.Submit(c)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("submit %s: %w", e.id, err)
		}
		w.next++
	}
	sp := tr.begin("core.Tick", "", parent)
	err := w.svc.Tick(ctx)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("tick: %w", err)
	}
	waitBuildsIdle(w.svc, w.runner)
	return w.g.check(w.next - w.decided())
}

func setupWindowDeep(p params, warm, measured int) (*windowRun, error) {
	window := wdWindow
	if small := 2 * (warm + measured); small < window {
		window = small // scaled-down runs (the smoke test) keep the shape, not the depth
	}
	w := &windowRun{p: p, window: window}
	w.initial = benchFiles(p.seed, wdSubtrees)
	w.edits = genEdits(p.seed, "w", warm+measured+window+wdWorkers, wdSubtrees)
	w.sentAt = make([]time.Time, len(w.edits))
	w.bus = events.NewBus(1024)
	w.runner = newStepRunner(0, p.commitBroken)
	var cfg core.Config
	w.pred, cfg = withTracedPredictor(p, core.Config{
		Workers: wdWorkers, Shards: wdShards, Events: w.bus, Runner: w.runner,
	})
	w.svc = core.NewService(repo.New(w.initial), cfg)
	w.g = newGuard(time.Duration(float64(warm+measured)/wdRate*float64(time.Second)), 4*window)
	ctx := context.Background()
	for w.decided() < warm {
		if err := w.step(ctx, -1); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func runWindowDeep(p params) (*result, error) {
	r := newResult(p)
	measured := p.count(wdRate, 24)
	warm := warmUp(measured, 8)

	start := time.Now()
	w, err := setupWindowDeep(p, warm, measured)
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = time.Since(start).Seconds()

	var stages *stageWatch
	if p.tr != nil {
		stages = watchStages(w.bus, p.tr)
	}
	ctx := context.Background()
	base := w.decided()
	before := readCounters(w.svc, w.bus, w.pred)
	sec := newSection(measured, wdSegments)
	root := p.tr.begin("window_deep.measured", "", -1)
	sec.begin()
	var runErr error
	for w.decided()-base < measured {
		if runErr = w.step(ctx, root); runErr != nil {
			break
		}
		sec.note(w.decided() - base)
	}
	sec.end(w.decided() - base)
	p.tr.end(root)
	after := readCounters(w.svc, w.bus, w.pred)
	if stages != nil {
		stages.stop(r.layer)
	}

	outs := w.svc.Outcomes()
	section := outs[base:]
	fillLive(r, sec, section, before, after, true)
	// Measured, submit to decision. With 1024 pending a change is decided 1024
	// decisions after it was submitted, which is about as long as the run: most
	// changes decided in the section entered with the initial fill, so these
	// percentiles are the age of that fill, not a steady state. They move with
	// decided_per_s and with the cost of filling the window in set-up.
	idxOf := make(map[string]int, w.next)
	for i := 0; i < w.next; i++ {
		idxOf[w.edits[i].id] = i
	}
	turnaround := make([]float64, len(section))
	for i, o := range section {
		turnaround[i] = ms(o.At.Sub(w.sentAt[idxOf[string(o.ID)]]))
	}
	fillTurnaround(r, turnaround)

	// Every submitted change is either decided exactly once or still in the
	// window the loop holds open; nothing may be lost in between.
	r.attempted = w.next
	pending := w.next - len(outs)
	if runErr != nil {
		r.fail(pending, "window_deep: %v", runErr)
	} else if got := w.svc.PendingCount(); got != pending || pending > w.window {
		r.fail(1, "window_deep: %d submitted - %d decided leaves %d, service reports %d pending (window %d)",
			w.next, len(outs), pending, got, w.window)
	}
	order := checkDecisions(r, w.initial, w.edits[:w.next], decisionsOf(w.svc, outs), pending, true,
		w.svc.Repo().Head().Snapshot().Range)
	r.hash, r.hashKind = hashSequence(order), "sequence"

	if p.tr != nil {
		fillWindowLayers(r, w, p.tr, sec, section, before, after)
	}
	return r, nil
}
