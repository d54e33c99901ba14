package planner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/predict"
	"mastergreen/internal/queue"
	"mastergreen/internal/repo"
	"mastergreen/internal/speculation"
)

// testEnv wires a planner over the Fig. 8-style repo. outs holds the
// outcomes the test has drained from the planner, in decision order.
type testEnv struct {
	repo    *repo.Repo
	queue   *queue.Queue
	planner *Planner
	ctrl    *buildsys.Controller
	outs    []Outcome
}

func newEnv(t *testing.T, runner buildsys.StepRunner, cfg Config) *testEnv {
	t.Helper()
	r := repo.New(map[string]string{
		"x/BUILD": "target x srcs=x.go",
		"x/x.go":  "x v1",
		"y/BUILD": "target y srcs=y.go deps=//x:x",
		"y/y.go":  "y v1",
		"z/BUILD": "target z srcs=z.go",
		"z/z.go":  "z v1",
		"w/BUILD": "target w srcs=w.go",
		"w/w.go":  "w v1",
	})
	q := queue.New(1)
	an := conflict.New(r)
	spec := speculation.New(predict.Static{Success: 0.9, Conflict: 0.2})
	ctrl := buildsys.NewController(4, runner)
	return &testEnv{repo: r, queue: q, planner: New(r, q, an, spec, ctrl, cfg), ctrl: ctrl}
}

func (e *testEnv) submit(t *testing.T, id, path, content string) *change.Change {
	t.Helper()
	snap := e.repo.Head().Snapshot()
	cur, ok := snap.Read(path)
	fc := repo.FileChange{Path: path, Op: repo.OpCreate, NewContent: content}
	if ok {
		fc = repo.FileChange{Path: path, Op: repo.OpModify, BaseHash: repo.HashContent(cur), NewContent: content}
	}
	c := &change.Change{
		ID:          change.ID(id),
		Author:      change.Developer{Name: "dev-" + id, Team: "team"},
		Description: "change " + id,
		Patch:       repo.Patch{Changes: []repo.FileChange{fc}},
		BuildSteps:  []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
		BaseCommit:  e.repo.Head().ID,
	}
	if err := e.queue.Enqueue(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// quiesce ticks the planner until its queue drains, giving running builds a
// millisecond to finish between epochs.
func (e *testEnv) quiesce(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := e.planner.Tick(context.Background()); err != nil {
			t.Fatalf("tick: %v", err)
		}
		if e.queue.Len() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("quiesce: %d changes still pending", e.queue.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

// outcomes drains the planner's new outcomes into e.outs and returns them
// all, in decision order.
func (e *testEnv) outcomes() []Outcome {
	e.outs = e.planner.DrainOutcomes(e.outs)
	return e.outs
}

// decision returns the planner's outcome for id, or a pending Outcome if it
// has not decided it. The planner reports a decision only as an Outcome, so
// tests read every decision through here.
func (e *testEnv) decision(id change.ID) Outcome {
	for _, o := range e.outcomes() {
		if o.ID == id {
			return o
		}
	}
	return Outcome{ID: id, State: change.StatePending}
}

// running returns the number of builds p has in flight.
func running(p *Planner) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.running)
}

func TestSingleChangeCommits(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 4})
	e.submit(t, "c1", "x/x.go", "x v2")
	e.quiesce(t)
	if o := e.decision("c1"); o.State != change.StateCommitted || o.Commit == "" {
		t.Fatalf("outcome = %+v", o)
	}
	if e.repo.Len() != 2 {
		t.Fatalf("repo len = %d", e.repo.Len())
	}
	got, _ := e.repo.Head().Snapshot().Read("x/x.go")
	if got != "x v2" {
		t.Fatalf("content = %q", got)
	}
}

func TestFailingBuildRejects(t *testing.T) {
	runner := buildsys.RunnerFunc(func(_ context.Context, _ change.BuildStep, target string, snap repo.Snapshot) error {
		if content, _ := snap.Read("x/x.go"); content == "broken" && target == "//x:x" {
			return errors.New("compile error")
		}
		return nil
	})
	e := newEnv(t, runner, Config{Budget: 4})
	e.submit(t, "c1", "x/x.go", "broken")
	e.quiesce(t)
	c := e.decision("c1")
	if c.State != change.StateRejected {
		t.Fatalf("state = %v", c.State)
	}
	if !strings.Contains(c.Reason, "compile error") {
		t.Fatalf("reason = %q", c.Reason)
	}
	if e.repo.Len() != 1 {
		t.Fatal("rejected change must not land")
	}
}

func TestSerializedConflictingChanges(t *testing.T) {
	// c1 and c2 both edit x/x.go: real merge conflict. c1 lands; c2 must be
	// rejected (its patch no longer applies).
	e := newEnv(t, nil, Config{Budget: 4})
	e.submit(t, "c1", "x/x.go", "x v2")
	e.submit(t, "c2", "x/x.go", "x other")
	e.quiesce(t)
	c1, c2 := e.decision("c1"), e.decision("c2")
	if c1.State != change.StateCommitted {
		t.Fatalf("c1 = %v (%s)", c1.State, c1.Reason)
	}
	if c2.State != change.StateRejected {
		t.Fatalf("c2 = %v (%s)", c2.State, c2.Reason)
	}
	got, _ := e.repo.Head().Snapshot().Read("x/x.go")
	if got != "x v2" {
		t.Fatalf("content = %q", got)
	}
}

func TestIndependentChangesBothCommit(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 4})
	e.submit(t, "c1", "x/x.go", "x v2")
	e.submit(t, "c2", "z/z.go", "z v2")
	e.submit(t, "c3", "w/w.go", "w v2")
	e.quiesce(t)
	for _, id := range []change.ID{"c1", "c2", "c3"} {
		if c := e.decision(id); c.State != change.StateCommitted {
			t.Fatalf("%s = %v (%s)", c.ID, c.State, c.Reason)
		}
	}
	if e.repo.Len() != 4 {
		t.Fatalf("repo len = %d", e.repo.Len())
	}
}

func TestConflictingTargetsSerialized(t *testing.T) {
	// c1 edits x (affects //x:x, //y:y), c2 edits y (affects //y:y): they
	// conflict at target level but touch different files, so both should
	// land, serialized, with c2 built on top of c1.
	e := newEnv(t, nil, Config{Budget: 4})
	e.submit(t, "c1", "x/x.go", "x v2")
	e.submit(t, "c2", "y/y.go", "y v2")
	e.quiesce(t)
	c1, c2 := e.decision("c1"), e.decision("c2")
	if c1.State != change.StateCommitted || c2.State != change.StateCommitted {
		t.Fatalf("c1=%v (%s) c2=%v (%s)", c1.State, c1.Reason, c2.State, c2.Reason)
	}
	// c1 committed before c2 (submission order respected).
	outs := e.outcomes()
	if outs[0].ID != "c1" || outs[1].ID != "c2" {
		t.Fatalf("order = %v, %v", outs[0].ID, outs[1].ID)
	}
}

func TestRealConflictOnlyTogether(t *testing.T) {
	// c1 succeeds alone; c2 succeeds alone; together the build fails (a real
	// conflict per Fig. 1's definition). c1 lands, c2 is rejected.
	runner := buildsys.RunnerFunc(func(_ context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		x, _ := snap.Read("x/x.go")
		y, _ := snap.Read("y/y.go")
		if x == "x v2" && y == "y v2" {
			return errors.New("integration failure: x v2 incompatible with y v2")
		}
		return nil
	})
	e := newEnv(t, runner, Config{Budget: 8})
	e.submit(t, "c1", "x/x.go", "x v2")
	e.submit(t, "c2", "y/y.go", "y v2")
	e.quiesce(t)
	c1, c2 := e.decision("c1"), e.decision("c2")
	if c1.State != change.StateCommitted {
		t.Fatalf("c1 = %v (%s)", c1.State, c1.Reason)
	}
	if c2.State != change.StateRejected {
		t.Fatalf("c2 = %v (%s)", c2.State, c2.Reason)
	}
	if !strings.Contains(c2.Reason, "integration failure") {
		t.Fatalf("reason = %q", c2.Reason)
	}
}

func TestSpeculativeResultReusedAfterPredecessorCommits(t *testing.T) {
	// With budget >= 2, the planner runs B(c1) and B(c1+c2) concurrently;
	// after c1 commits, B(c1+c2)'s result must decide c2 without a rebuild.
	e := newEnv(t, nil, Config{Budget: 8})
	e.submit(t, "c1", "x/x.go", "x v2")
	e.submit(t, "c2", "y/y.go", "y v2") // conflicts with c1 at target level
	e.quiesce(t)
	c1, c2 := e.decision("c1"), e.decision("c2")
	if c1.State != change.StateCommitted || c2.State != change.StateCommitted {
		t.Fatalf("c1=%v c2=%v", c1.State, c2.State)
	}
	// The controller should have run at most 3 builds (c1, c1+c2, and
	// possibly c2-alone before abort); crucially, no 4th build after c1
	// committed.
	if st := e.ctrl.Stats(); st.Builds > 3 {
		t.Fatalf("builds = %d, expected speculation reuse", st.Builds)
	}
}

func TestMisspeculatedBuildAborted(t *testing.T) {
	// c1 fails; the speculative build B(c1+c2) assumed c1 commits and must be
	// aborted/discarded; c2 still lands via its B(c2 | c1 rejected) build.
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
	if c1.State != change.StateRejected {
		t.Fatalf("c1 = %v", c1.State)
	}
	if c2.State != change.StateCommitted {
		t.Fatalf("c2 = %v (%s)", c2.State, c2.Reason)
	}
	// Mainline stayed green: y v2 applied on original x.
	x, _ := e.repo.Head().Snapshot().Read("x/x.go")
	if x != "x v1" {
		t.Fatalf("x = %q", x)
	}
}

func TestAlwaysGreenInvariant(t *testing.T) {
	// Mixed workload: some changes break builds, some conflict, some are
	// fine. At every commit point the mainline must pass all builds
	// (simulated: snapshot never contains the string "broken").
	runner := buildsys.RunnerFunc(func(_ context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		for _, p := range snap.Paths() {
			if c, _ := snap.Read(p); strings.Contains(c, "broken") {
				return fmt.Errorf("%s is broken", p)
			}
		}
		return nil
	})
	e := newEnv(t, runner, Config{Budget: 6})
	e.submit(t, "c1", "x/x.go", "x v2")
	e.submit(t, "c2", "z/z.go", "broken")
	e.submit(t, "c3", "y/y.go", "y v2")
	e.submit(t, "c4", "w/w.go", "w v2")
	e.submit(t, "c5", "z/z.go", "z v2")
	e.quiesce(t)

	// Walk every mainline commit point: none may contain "broken".
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
	// c2 rejected; the rest committed (c5 may conflict with c2's rejection
	// only, and z/z.go edits from c2 never landed so c5 applies cleanly).
	outs := e.outcomes()
	if len(outs) != 5 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	rejected := 0
	for _, o := range outs {
		if o.State == change.StateRejected {
			rejected++
			if o.ID != "c2" {
				t.Fatalf("unexpected rejection: %+v", o)
			}
		}
	}
	if rejected != 1 {
		t.Fatalf("rejected = %d", rejected)
	}
}

func TestMinimalBuildStepsUsed(t *testing.T) {
	// Speculative chain builds should skip targets already covered by the
	// prefix build.
	e := newEnv(t, nil, Config{Budget: 8})
	e.submit(t, "c1", "x/x.go", "x v2")
	e.submit(t, "c2", "y/y.go", "y v2")
	e.quiesce(t)
	if st := e.ctrl.Stats(); st.SkippedPrior == 0 && st.SkippedCache == 0 {
		t.Fatalf("no incremental savings recorded: %+v", st)
	}
}

func TestSpeculationArtifactCacheHits(t *testing.T) {
	// c3 conflicts with c1 (via //y:y, since y depends on x) and with c2
	// (via //w:w), so its speculation tree has sibling branches — H⊕c3,
	// H⊕c1⊕c3, H⊕c2⊕c3, H⊕c1⊕c2⊕c3 — that build //y:y and //w:w at hashes
	// shared across branches. The content-addressed artifact cache must
	// serve those repeats instead of re-executing them.
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
		select {
		case <-time.After(5 * time.Millisecond):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	e := newEnv(t, runner, Config{Budget: 8})
	e.submit(t, "c1", "x/x.go", "x v2")
	e.submit(t, "c2", "w/w.go", "w v2")
	snap := e.repo.Head().Snapshot()
	yCur, _ := snap.Read("y/y.go")
	wBuild, _ := snap.Read("w/BUILD")
	c3 := &change.Change{
		ID:     "c3",
		Author: change.Developer{Name: "dev-c3", Team: "team"},
		Patch: repo.Patch{Changes: []repo.FileChange{
			{Path: "y/y.go", Op: repo.OpModify, BaseHash: repo.HashContent(yCur), NewContent: "y v2"},
			{Path: "w/BUILD", Op: repo.OpModify, BaseHash: repo.HashContent(wBuild), NewContent: "target w srcs=w.go,w2.go"},
			{Path: "w/w2.go", Op: repo.OpCreate, NewContent: "w2 v1"},
		}},
		BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
		BaseCommit: e.repo.Head().ID,
	}
	if err := e.queue.Enqueue(c3); err != nil {
		t.Fatal(err)
	}
	e.quiesce(t)
	if c := e.decision("c3"); c.State != change.StateCommitted {
		t.Fatalf("c3 state = %v, reason %q", c.State, c.Reason)
	}
	if st := e.ctrl.Stats(); st.SkippedCache == 0 {
		t.Fatalf("artifact cache never hit during speculation: %+v", st)
	}
}

func TestBudgetLimitsConcurrentBuilds(t *testing.T) {
	block := make(chan struct{})
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return buildsys.ErrAborted
		}
	})
	e := newEnv(t, runner, Config{Budget: 2})
	for i := 1; i <= 5; i++ {
		e.submit(t, fmt.Sprintf("c%d", i), "x/x.go", fmt.Sprintf("x v%d", i+1))
	}
	ctx := context.Background()
	if _, err := e.planner.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got := running(e.planner); got > 2 {
		t.Fatalf("running = %d, want <= 2", got)
	}
	close(block)
	e.quiesce(t)
}

func TestSpecStatsUpdated(t *testing.T) {
	e := newEnv(t, nil, Config{Budget: 4})
	c1 := e.submit(t, "c1", "x/x.go", "x v2")
	c2 := e.submit(t, "c2", "y/y.go", "y v2")
	e.quiesce(t)
	// At least one speculation involving c1/c2 succeeded and was recorded
	// while the change was still pending.
	ok1, _ := c1.Spec.Counts()
	ok2, _ := c2.Spec.Counts()
	if ok1+ok2 == 0 {
		t.Fatalf("no speculation stats recorded: %d %d", ok1, ok2)
	}
}
