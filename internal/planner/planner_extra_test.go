package planner

import (
	"context"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// TestMergeFailureRecordedAsBuildFailure: a speculative build whose patches
// do not merge (two changes editing the same file) must surface as a failed
// build that rejects the later change once its predecessor commits.
func TestMergeFailureRecordedAsBuildFailure(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 8})
	e.submit(t, "c1", "x/x.go", "x v2")
	e.submit(t, "c2", "x/x.go", "x v3") // same file: merge conflict
	e.quiesce(t)
	c1, c2 := e.decision("c1"), e.decision("c2")
	if c1.State != change.StateCommitted {
		t.Fatalf("c1 = %v (%s)", c1.State, c1.Reason)
	}
	if c2.State != change.StateRejected {
		t.Fatalf("c2 = %v (%s)", c2.State, c2.Reason)
	}
	if !strings.Contains(c2.Reason, "merge") && !strings.Contains(c2.Reason, "apply") {
		t.Fatalf("reason should mention the merge: %q", c2.Reason)
	}
}

// TestBrokenBuildFileRejected: a change that corrupts the target graph (BUILD
// syntax error) must be rejected with a graph error, not crash the planner.
func TestBrokenBuildFileRejected(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 4})
	e.submit(t, "c1", "x/BUILD", "target x srcs=x.go deps=//nope:gone")
	e.quiesce(t)
	if c := e.decision("c1"); c.State != change.StateRejected {
		t.Fatalf("state = %v (%s)", c.State, c.Reason)
	}
	if e.repo.Len() != 1 {
		t.Fatal("broken BUILD landed")
	}
}

// TestPreemptionGraceKeepsOldBuilds: with a grace window, a long-running
// build survives re-planning even when it drops out of the selected set.
func TestPreemptionGraceKeepsOldBuilds(t *testing.T) {
	block := make(chan struct{})
	started := make(chan string, 64)
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, target string, _ repo.Snapshot) error {
		select {
		case started <- target:
		default:
		}
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return buildsys.ErrAborted
		}
	})
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	e := newEnv(t, runner, Config{Budget: 1, PreemptionGrace: time.Nanosecond, Now: clock})
	e.submit(t, "c1", "x/x.go", "x v2")
	ctx := context.Background()
	if _, err := e.planner.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	<-started
	// Advance the clock past the grace threshold and enqueue a competitor in
	// the same conflict component; with budget 1 the planner would normally
	// preempt, but grace protects the running build.
	now = now.Add(time.Hour)
	e.submit(t, "c2", "y/y.go", "y v2")
	if _, err := e.planner.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got := running(e.planner); got != 1 {
		t.Fatalf("running = %d, want the protected build", got)
	}
	close(block)
	e.quiesce(t)
	if e.ctrl.Stats().Aborted != 0 {
		t.Fatalf("aborted = %d, grace should prevent preemption", e.ctrl.Stats().Aborted)
	}
}

// TestOutcomesOrderedByDecisionTime: outcomes appear in the order decisions
// were made, oldest first.
func TestOutcomesOrderedByDecisionTime(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 8})
	e.submit(t, "a", "x/x.go", "x v2")
	e.submit(t, "b", "z/z.go", "z v2")
	e.submit(t, "c", "w/w.go", "w v2")
	e.quiesce(t)
	outs := e.outcomes()
	if len(outs) != 3 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].At.Before(outs[i-1].At) {
			t.Fatal("outcomes not in decision order")
		}
	}
}

// TestEmptyTickIsNoop: ticking with no pending changes must not error or
// change state.
func TestEmptyTickIsNoop(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 2})
	prog, err := e.planner.Tick(context.Background())
	if err != nil || prog {
		t.Fatalf("tick = %v, %v", prog, err)
	}
	if e.repo.Len() != 1 || running(e.planner) != 0 {
		t.Fatal("state changed on empty tick")
	}
}

// bounceOnce is a Committer that bounces its first proposal as a cross-shard
// conflict, without moving the head, and commits every later one.
type bounceOnce struct {
	r       *repo.Repo
	bounced bool
}

func (b *bounceOnce) Commit(p CommitProposal) (*repo.Commit, error) {
	if !b.bounced {
		b.bounced = true
		return nil, ErrCrossShardConflict
	}
	return b.r.CommitPatch(b.r.Head().ID, p.Change.Patch, p.Change.Author.Name, p.Change.Description, p.Now)
}

// TestBouncedBuildDecidedAfterRebuild: after a bounced proposal the rebuild
// has the dropped build's key, so once it finishes — with the head unmoved —
// the plan fingerprint equals the one the bouncing epoch planned under. The
// next epoch must still decide the change instead of skipping forever.
func TestBouncedBuildDecidedAfterRebuild(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 1})
	e.planner.cfg.Committer = &bounceOnce{r: e.repo}
	e.submit(t, "c1", "x/x.go", "x v2")
	for i := 0; i < 5 && e.decision("c1").State == change.StatePending; i++ {
		if _, err := e.planner.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
		for st := e.ctrl.Stats(); st.Completed+st.Aborted < st.Builds; st = e.ctrl.Stats() {
			time.Sleep(time.Millisecond) // let every started build finish before the next epoch
		}
	}
	if o := e.decision("c1"); o.State != change.StateCommitted {
		t.Fatalf("c1 = %+v after a bounced proposal and its rebuild; want committed", o)
	}
	if n := e.planner.Stats().CrossShardRebuilds; n != 1 {
		t.Fatalf("cross-shard rebuilds = %d, want 1", n)
	}
}
