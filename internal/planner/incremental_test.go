package planner

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/clock"
	"mastergreen/internal/reliability"
	"mastergreen/internal/repo"
	"mastergreen/internal/sched"
)

// TestPrepareTrieHitMiss drives the preparation trie directly: the first
// walk of H⊕c1⊕c2 computes both nodes, a second walk is all hits, and the
// c1 prefix rides the same path.
func TestPrepareTrieHitMiss(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 4})
	c1 := e.submit(t, "c1", "x/x.go", "x v2")
	c2 := e.submit(t, "c2", "y/y.go", "y v2")
	head := e.repo.Head()
	ids := []change.ID{c1.ID, c2.ID}
	patches := []repo.Patch{c1.Patch, c2.Patch}

	pr, err := e.planner.prepare(head, ids, patches)
	if err != nil || pr.failure != "" {
		t.Fatalf("prepare: %v %q", err, pr.failure)
	}
	st := e.planner.Stats()
	if st.PrefixMisses != 2 || st.PrefixHits != 0 || st.HeadGraphBuilds != 1 {
		t.Fatalf("first walk: %+v", st)
	}
	if st.SnapshotAnalyses != 3 || st.PatchApplies != 2 {
		t.Fatalf("first walk cost: %+v", st)
	}
	if got, _ := pr.snap.Read("y/y.go"); got != "y v2" {
		t.Fatalf("merged content = %q", got)
	}
	// y deps //x:x, so c1 perturbs both targets; c2 then rewrites y. The
	// prefix build already produced //x:x at its final hash, //y:y not.
	if !pr.prior["//x:x"] || pr.prior["//y:y"] {
		t.Fatalf("prior = %v", pr.prior)
	}

	if _, err := e.planner.prepare(head, ids, patches); err != nil {
		t.Fatal(err)
	}
	st = e.planner.Stats()
	if st.PrefixMisses != 2 || st.PrefixHits != 2 || st.SnapshotAnalyses != 3 {
		t.Fatalf("second walk should be all hits: %+v", st)
	}

	if _, err := e.planner.prepare(head, ids[:1], patches[:1]); err != nil {
		t.Fatal(err)
	}
	st = e.planner.Stats()
	if st.PrefixHits != 3 || st.PrefixMisses != 2 {
		t.Fatalf("prefix walk should share the path: %+v", st)
	}
}

// TestPrepareTrieInvalidatedOnHeadMove: moving the mainline head discards
// every memoized snapshot (all are rooted at the old head) and re-analyzes
// the new head exactly once.
func TestPrepareTrieInvalidatedOnHeadMove(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 4})
	c1 := e.submit(t, "c1", "x/x.go", "x v2")
	head := e.repo.Head()
	if _, err := e.planner.prepare(head, []change.ID{c1.ID}, []repo.Patch{c1.Patch}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.repo.CommitPatch(head.ID, c1.Patch, "dev", "c1", time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	newHead := e.repo.Head()
	c2 := &change.Change{ID: "c2", Patch: repo.Patch{Changes: []repo.FileChange{{
		Path: "z/z.go", Op: repo.OpModify,
		BaseHash: repo.HashContent("z v1"), NewContent: "z v2",
	}}}}
	if _, err := e.planner.prepare(newHead, []change.ID{c2.ID}, []repo.Patch{c2.Patch}); err != nil {
		t.Fatal(err)
	}
	st := e.planner.Stats()
	if st.PrefixInvalidations != 1 || st.HeadGraphBuilds != 2 {
		t.Fatalf("head move should reset the trie once: %+v", st)
	}
	// The old head's branches are gone: re-walking c2 under the new head
	// hits, re-walking under the old head rebuilds from scratch.
	if _, err := e.planner.prepare(newHead, []change.ID{c2.ID}, []repo.Patch{c2.Patch}); err != nil {
		t.Fatal(err)
	}
	if st = e.planner.Stats(); st.PrefixHits != 1 {
		t.Fatalf("re-walk under same head should hit: %+v", st)
	}
}

// TestPrepareTrieSurvivesQueueChurn: withdrawing and replacing pending
// changes under an unmoved head never invalidates the trie — new change
// stacks just grow new branches next to the old ones.
func TestPrepareTrieSurvivesQueueChurn(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 4})
	c1 := e.submit(t, "c1", "x/x.go", "x v2")
	head := e.repo.Head()
	if _, err := e.planner.prepare(head, []change.ID{c1.ID}, []repo.Patch{c1.Patch}); err != nil {
		t.Fatal(err)
	}
	// Mid-epoch churn: c1 is withdrawn, a different change c1b to the same
	// file shows up.
	if err := e.queue.Remove(c1.ID); err != nil {
		t.Fatal(err)
	}
	c1b := e.submit(t, "c1b", "x/x.go", "x other")
	if _, err := e.planner.prepare(head, []change.ID{c1b.ID}, []repo.Patch{c1b.Patch}); err != nil {
		t.Fatal(err)
	}
	st := e.planner.Stats()
	if st.PrefixInvalidations != 0 || st.HeadGraphBuilds != 1 {
		t.Fatalf("queue churn must not reset the trie: %+v", st)
	}
	if st.PrefixMisses != 2 {
		t.Fatalf("c1b should branch beside c1: %+v", st)
	}
}

// TestPlanFingerprintSkipsIdleEpochs: while a build runs and nothing else
// changes, repeated ticks skip decide/Plan/reconcile entirely; any input
// change (new pending, build completion) forces a recompute.
func TestPlanFingerprintSkipsIdleEpochs(t *testing.T) {
	block := make(chan struct{})
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return buildsys.ErrAborted
		}
	})
	e := newEnv(t, runner, Config{Budget: 1})
	e.submit(t, "c1", "x/x.go", "x v2")
	ctx := context.Background()
	// Tick 1 plans and starts the build; tick 2 sees the running set change;
	// ticks 3-5 are true idle epochs.
	for i := 0; i < 5; i++ {
		if _, err := e.planner.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := e.planner.Stats()
	if st.PlansComputed != 2 || st.PlansSkipped != 3 {
		t.Fatalf("idle loop: computed=%d skipped=%d", st.PlansComputed, st.PlansSkipped)
	}
	if st.KeysCached == 0 {
		t.Fatalf("idle fingerprints should serve cached keys: %+v", st)
	}
	// New pending input invalidates the memo.
	e.submit(t, "c2", "z/z.go", "z v2")
	if _, err := e.planner.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if st = e.planner.Stats(); st.PlansComputed != 3 {
		t.Fatalf("new pending must recompute the plan: %+v", st)
	}
	close(block)
	e.quiesce(t)
	if st = e.planner.Stats(); st.PlansComputed <= 3 {
		t.Fatalf("build completions must recompute the plan: %+v", st)
	}
}

// TestFinishedBoundedAcrossEpochs is the memory regression test: 200
// simulated epochs of commits and rejections must not grow p.finished —
// every resolution garbage-collects the builds it obsoletes.
func TestFinishedBoundedAcrossEpochs(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 4})
	for i := 0; i < 200; i++ {
		id := change.ID(fmt.Sprintf("c%d", i))
		e.submit(t, string(id), "x/x.go", fmt.Sprintf("x v%d", i+2))
		if i%3 == 0 {
			// A same-file competitor: loses the race and is rejected, so the
			// rejection pruning path is exercised too.
			e.submit(t, fmt.Sprintf("c%dr", i), "x/x.go", fmt.Sprintf("x alt%d", i))
		}
		e.quiesce(t)
		if c := e.decision(id); c.State != change.StateCommitted {
			t.Fatalf("epoch %d: %v (%s)", i, c.State, c.Reason)
		}
		e.planner.mu.Lock()
		finished := len(e.planner.finished)
		e.planner.mu.Unlock()
		if finished > 8 {
			t.Fatalf("epoch %d: finished set grew to %d", i, finished)
		}
	}
	e.planner.mu.Lock()
	finished := len(e.planner.finished)
	e.planner.mu.Unlock()
	if finished != 0 {
		t.Fatalf("all subjects resolved but %d finished builds retained", finished)
	}
	st := e.planner.Stats()
	if st.FinishedPruned < 200 {
		t.Fatalf("pruning idle: %+v", st)
	}
	if st.KeysCached == 0 {
		t.Fatalf("key cache idle: %+v", st)
	}
}

// TestIdleTickAllocs: a tick whose plan inputs are unchanged — builds still
// running, nothing decided, nothing arrived — allocates nothing, with the
// sched weights and the reliability epoch in its path. The engine loop ticks
// on every wake, and most wakes change nothing, so the no-op tick must be
// free.
func TestIdleTickAllocs(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return buildsys.ErrAborted
		}
	})
	now := time.Unix(1_700_000_000, 0)
	e := newEnv(t, runner, Config{
		Budget:      2,
		Sched:       sched.Default(),
		Reliability: reliability.New(reliability.Config{}),
	})
	e.ctrl.SetClock(clock.NewManual(now))
	e.submit(t, "c1", "x/x.go", "x v2")
	bulk := e.submit(t, "c2", "z/z.go", "z v2")
	bulk.Class, bulk.Deadline = change.ClassBulk, now.Add(time.Hour) // a weight of its own
	e.submit(t, "c3", "w/w.go", "w v2")
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.planner.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := running(e.planner); n != 2 {
		t.Fatalf("%d builds running, want the budget of 2", n)
	}
	skipped := e.planner.Stats().PlansSkipped
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.planner.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("an idle tick allocates %v times, want 0", allocs)
	}
	if n := e.planner.Stats().PlansSkipped - skipped; n < 100 {
		t.Fatalf("only %d of the measured ticks skipped planning", n)
	}
}

// TestAgingTimerLifetime: the sched aging timer exists only once a pending
// change has a deadline, it is armed on the planner's clock, and StopAging —
// which the shard runtime calls when its loop ends — disarms it, so a
// stopped planner is not kept reachable until the deadline passes.
func TestAgingTimerLifetime(t *testing.T) {
	m := clock.NewManual(time.Unix(1_700_000_000, 0))
	e := newEnv(t, holdOpenRunner(), Config{Budget: 1, Sched: sched.Default()})
	e.ctrl.SetClock(m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.submit(t, "c1", "x/x.go", "x v2")
	if _, err := e.planner.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if e.planner.aging != nil || m.Armed() != 0 {
		t.Fatal("aging timer created with no deadline pending")
	}
	bulk := e.submit(t, "c2", "z/z.go", "z v2")
	bulk.Class, bulk.Deadline = change.ClassBulk, m.Now().Add(time.Hour)
	if _, err := e.planner.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if e.planner.aging == nil || m.Armed() != 1 {
		t.Fatalf("with a deadline pending: timer %v, %d armed on the planner's clock; want one", e.planner.aging, m.Armed())
	}
	e.planner.StopAging()
	if m.Armed() != 0 {
		t.Fatal("aging timer still armed after StopAging")
	}
}
