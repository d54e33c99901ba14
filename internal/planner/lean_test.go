package planner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/repo"
	"mastergreen/internal/speculation"
)

// TestObsoletePredicateContradictedPrefix: a running build that assumed a
// predecessor commits becomes obsolete the moment that predecessor is
// rejected.
func TestObsoletePredicateContradictedPrefix(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 4})
	e.submit(t, "c2", "y/y.go", "y v2") // subject stays pending
	rb := &trackedBuild{
		build: speculation.Build{
			Subject: "c2",
			Assumed: []change.ID{"c1"},
			Changes: []change.ID{"c1", "c2"},
		},
		baseLen: e.repo.Len(),
	}
	p := e.planner
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.obsoleteLocked(rb, nil) {
		t.Fatal("build obsolete before any resolution")
	}
	p.rejected["c1"] = "build failed"
	p.keyEpoch++
	if !p.obsoleteLocked(rb, nil) {
		t.Fatal("assumed-committed predecessor rejected; build must be obsolete")
	}
}

// TestObsoletePredicateAssumedRejectionCommitted: the dual contradiction — a
// build that assumed a predecessor's rejection is obsolete once that
// predecessor commits.
func TestObsoletePredicateAssumedRejectionCommitted(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 4})
	e.submit(t, "c2", "y/y.go", "y v2")
	rb := &trackedBuild{
		build: speculation.Build{
			Subject:         "c2",
			AssumedRejected: []change.ID{"c1"},
			Changes:         []change.ID{"c2"},
		},
		baseLen: e.repo.Len(),
	}
	p := e.planner
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.obsoleteLocked(rb, nil) {
		t.Fatal("build obsolete before any resolution")
	}
	p.committedSet["c1"] = true
	p.keyEpoch++
	if !p.obsoleteLocked(rb, nil) {
		t.Fatal("assumed-rejected predecessor committed; build must be obsolete")
	}
	if key := p.buildKeyLocked(rb); key == "c2" {
		t.Fatalf("falsified build keyed %q: it would match c2's decisive build", key)
	}
}

// TestFalsifiedSpeculationAbortedAtCommit: the build "c2 assuming c1
// rejected" is still running when c1 commits. It is aborted as obsolete, not
// kept as c2's decisive build, and c2 is decided by the c1+c2 build without
// a stale-result rebuild.
func TestFalsifiedSpeculationAbortedAtCommit(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		x, _ := snap.Read("x/x.go")
		y, _ := snap.Read("y/y.go")
		switch {
		case x == "x v1" && y == "y v2": // c2 assuming c1 rejected: held until aborted
			once.Do(func() { close(started) })
			<-ctx.Done()
			return buildsys.ErrAborted
		case y == "y v1": // c1 alone: ends once the speculation build runs
			select {
			case <-started:
			case <-ctx.Done():
				return buildsys.ErrAborted
			}
		}
		return nil
	})
	e := newEnv(t, runner, Config{Budget: 4})
	e.submit(t, "c1", "x/x.go", "x v2")
	e.submit(t, "c2", "y/y.go", "y v2")
	e.quiesce(t)
	for _, id := range []change.ID{"c1", "c2"} {
		if o := e.decision(id); o.State != change.StateCommitted {
			t.Fatalf("%s = %+v, want committed", id, o)
		}
	}
	st := e.planner.Stats()
	if st.ObsoleteAborted == 0 {
		t.Fatalf("falsified build not aborted as obsolete: %+v", st)
	}
	if st.CrossShardRebuilds != 0 {
		t.Fatalf("stale-result rebuilds = %d, want 0", st.CrossShardRebuilds)
	}
}

// TestObsoletePredicateDominated: a running build whose dynamic key is
// already held by a finished build can no longer affect any decision.
func TestObsoletePredicateDominated(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 4})
	e.submit(t, "c1", "x/x.go", "x v2")
	b := speculation.Build{Subject: "c1", Changes: []change.ID{"c1"}}
	rb := &trackedBuild{build: b, baseLen: e.repo.Len()}
	p := e.planner
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.obsoleteLocked(rb, nil) {
		t.Fatal("build obsolete with no finished twin")
	}
	p.finished = append(p.finished, &trackedBuild{
		build: b, baseLen: e.repo.Len(),
		result: buildsys.Result{Key: b.Key(), OK: true},
	})
	if !p.obsoleteLocked(rb, nil) {
		t.Fatal("dominated build (finished twin exists) must be obsolete")
	}
}

// TestObsolescenceOverridesGrace is the satellite regression: a misspeculated
// build protected by PreemptionGrace must still be aborted once its assumed
// predecessor is rejected — grace damps re-planning churn, it does not save
// contradicted builds.
func TestObsolescenceOverridesGrace(t *testing.T) {
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		x, _ := snap.Read("x/x.go")
		y, _ := snap.Read("y/y.go")
		if x == "broken" && y == "y v2" {
			<-ctx.Done() // the misspeculated c1+c2 build: holds until aborted
			return buildsys.ErrAborted
		}
		if x == "broken" {
			return errors.New("compile error")
		}
		return nil
	})
	// A nanosecond grace puts every running build inside the keep-window, so
	// without the obsolescence override the c1+c2 build would never be cut.
	e := newEnv(t, runner, Config{Budget: 8, PreemptionGrace: time.Nanosecond})
	e.submit(t, "c1", "x/x.go", "broken")
	e.submit(t, "c2", "y/y.go", "y v2")
	e.quiesce(t)
	c1, c2 := e.decision("c1"), e.decision("c2")
	if c1.State != change.StateRejected {
		t.Fatalf("c1 = %v", c1.State)
	}
	if c2.State != change.StateCommitted {
		t.Fatalf("c2 = %v (%s)", c2.State, c2.Reason)
	}
	if st := e.planner.Stats(); st.ObsoleteAborted == 0 {
		t.Fatalf("no obsolete abort recorded despite contradicted speculation: %+v", st)
	}
	// The cancelled task finishes asynchronously; wait for the controller to
	// account it as aborted (and its compute as wasted).
	var st buildsys.Stats
	for i := 0; i < 200; i++ {
		st = e.ctrl.Stats()
		if st.Aborted >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Aborted < 1 {
		t.Fatalf("misspeculated build never aborted: %+v", st)
	}
}

// TestAbortAllCancelsDespiteGrace pins abortAll's unconditional cancel: with
// the queue drained every running build is obsolete by definition, and the
// grace window must not keep it burning workers.
func TestAbortAllCancelsDespiteGrace(t *testing.T) {
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
		<-ctx.Done()
		return buildsys.ErrAborted
	})
	e := newEnv(t, runner, Config{Budget: 4, PreemptionGrace: time.Nanosecond})
	e.submit(t, "c1", "x/x.go", "x v2")
	ctx := context.Background()
	if _, err := e.planner.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if running(e.planner) == 0 {
		t.Fatal("build never started")
	}
	if err := e.queue.Remove("c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.planner.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got := running(e.planner); got != 0 {
		t.Fatalf("running = %d after queue drained, want 0", got)
	}
	var st buildsys.Stats
	for i := 0; i < 200; i++ {
		st = e.ctrl.Stats()
		if st.Aborted >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Aborted < 1 {
		t.Fatalf("withdrawn change's build never aborted: %+v", st)
	}
}

// TestSkipWrongPredictionCaughtByDecisive: with skipping enabled and the
// predictor confidently wrong (c1 predicted to pass, actually fails), the
// deep hedge builds under c1's rejection are never planned — only c2's
// protected one-step hedge stays warm. c2 lands via that hedge, c3 lands via
// a fresh decisive build after the dust settles, and the mainline never goes
// red. The wrong skip costs a restart, not greenness.
func TestSkipWrongPredictionCaughtByDecisive(t *testing.T) {
	runner := buildsys.RunnerFunc(func(_ context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		if x, _ := snap.Read("x/x.go"); x == "broken" {
			return errors.New("compile error")
		}
		return nil
	})
	// newEnv's predictor says P_succ = 0.9; threshold 0.5 gates branching
	// once a node would carry two or more assumptions (c3 branches over both
	// c1 and c2 — x and y conflict through y's dep on //x:x).
	e := newEnv(t, runner, Config{Budget: 8})
	e.planner.spec.SkipThreshold = 0.5
	e.submit(t, "c1", "x/x.go", "broken")
	e.submit(t, "c2", "y/y.go", "y v2")
	e.submit(t, "c3", "x/x.go", "x v3")
	e.quiesce(t)
	c1, c2, c3 := e.decision("c1"), e.decision("c2"), e.decision("c3")
	if c1.State != change.StateRejected {
		t.Fatalf("c1 = %v", c1.State)
	}
	if c2.State != change.StateCommitted {
		t.Fatalf("c2 = %v (%s)", c2.State, c2.Reason)
	}
	if c3.State != change.StateCommitted {
		t.Fatalf("c3 = %v (%s)", c3.State, c3.Reason)
	}
	st := e.planner.Stats()
	if st.SpecBranchesSkipped == 0 {
		t.Fatalf("no branch skipped despite threshold: %+v", st)
	}
	if st.SpecBuildsSkipped == 0 {
		t.Fatalf("no low-P_needed node dropped despite floor: %+v", st)
	}
	// Mainline green at every commit point: "broken" never landed.
	for i := 0; i < e.repo.Len(); i++ {
		cm, err := e.repo.At(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range cm.Snapshot().Paths() {
			if c, _ := cm.Snapshot().Read(p); strings.Contains(c, "broken") {
				t.Fatalf("mainline red at commit %d: %s", i, p)
			}
		}
	}
}

// TestSkipDisabledPlansHedges: with the engine's SkipThreshold zero the
// planner still hedges — the reject-branch build is planned and reused as
// c2's decisive build after c1's rejection, with no restart.
func TestSkipDisabledPlansHedges(t *testing.T) {
	runner := buildsys.RunnerFunc(func(_ context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		if x, _ := snap.Read("x/x.go"); x == "broken" {
			return errors.New("compile error")
		}
		return nil
	})
	e := newEnv(t, runner, Config{Budget: 8})
	e.submit(t, "c1", "x/x.go", "broken")
	e.submit(t, "c2", "y/y.go", "y v2")
	e.quiesce(t)
	c1, c2 := e.decision("c1"), e.decision("c2")
	if c1.State != change.StateRejected || c2.State != change.StateCommitted {
		t.Fatalf("c1=%v c2=%v", c1.State, c2.State)
	}
	if st := e.planner.Stats(); st.SpecBranchesSkipped != 0 {
		t.Fatalf("branches skipped with skipping disabled: %+v", st)
	}
}
