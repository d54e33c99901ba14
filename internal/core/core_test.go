package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/planner"
	"mastergreen/internal/repo"
	"mastergreen/internal/sched"
)

func newRepo() *repo.Repo {
	return repo.New(map[string]string{
		"app/BUILD":     "target app srcs=main.go deps=//lib:lib",
		"app/main.go":   "app v1",
		"lib/BUILD":     "target lib srcs=lib.go",
		"lib/lib.go":    "lib v1",
		"doc/BUILD":     "target doc srcs=readme.md",
		"doc/readme.md": "doc v1",
	})
}

func mkChange(r *repo.Repo, id, path, content string) *change.Change {
	snap := r.Head().Snapshot()
	cur, ok := snap.Read(path)
	fc := repo.FileChange{Path: path, Op: repo.OpCreate, NewContent: content}
	if ok {
		fc = repo.FileChange{Path: path, Op: repo.OpModify, BaseHash: repo.HashContent(cur), NewContent: content}
	}
	return &change.Change{
		ID:          change.ID(id),
		Author:      change.Developer{Name: "dev", Team: "t", Level: 3},
		Description: "test " + id,
		Patch:       repo.Patch{Changes: []repo.FileChange{fc}},
		BuildSteps:  []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
	}
}

func TestSubmitAndProcess(t *testing.T) {
	r := newRepo()
	s := NewService(r, Config{Workers: 4})
	c := mkChange(r, "c1", "lib/lib.go", "lib v2")
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	st, err := s.State("c1")
	if err != nil || st.State != change.StatePending {
		t.Fatalf("state = %+v, %v", st, err)
	}
	if s.PendingCount() != 1 {
		t.Fatalf("pending = %d", s.PendingCount())
	}
	if err := s.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err = s.State("c1")
	if err != nil || st.State != change.StateCommitted || st.Commit == "" {
		t.Fatalf("state = %+v, %v", st, err)
	}
	if got, _ := r.Head().Snapshot().Read("lib/lib.go"); got != "lib v2" {
		t.Fatalf("content = %q", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := NewService(newRepo(), Config{})
	if err := s.Submit(&change.Change{ID: "bad"}); err == nil {
		t.Fatal("invalid change accepted")
	}
	// Duplicate submit fails.
	r := s.Repo()
	c := mkChange(r, "c1", "lib/lib.go", "v2")
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	dup := mkChange(r, "c1", "doc/readme.md", "v2")
	if err := s.Submit(dup); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestUnknownState(t *testing.T) {
	s := NewService(newRepo(), Config{})
	if _, err := s.State("ghost"); err == nil {
		t.Fatal("expected error for unknown change")
	}
}

func TestSubmitFillsDefaults(t *testing.T) {
	r := newRepo()
	now := time.Unix(12345, 0)
	s := NewService(r, Config{Now: func() time.Time { return now }})
	c := mkChange(r, "c1", "lib/lib.go", "v2")
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	if c.SubmittedAt != now {
		t.Fatalf("SubmittedAt = %v", c.SubmittedAt)
	}
	if c.BaseCommit != r.Head().ID {
		t.Fatalf("BaseCommit = %v", c.BaseCommit)
	}
}

func TestRejectionSurfacesReason(t *testing.T) {
	r := newRepo()
	runner := buildsys.RunnerFunc(func(_ context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		if c, _ := snap.Read("lib/lib.go"); strings.Contains(c, "bug") {
			return errors.New("unit test failed: nil pointer")
		}
		return nil
	})
	s := NewService(r, Config{Workers: 2, Runner: runner})
	if err := s.Submit(mkChange(r, "c1", "lib/lib.go", "bug here")); err != nil {
		t.Fatal(err)
	}
	if err := s.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, _ := s.State("c1")
	if st.State != change.StateRejected || !strings.Contains(st.Reason, "nil pointer") {
		t.Fatalf("status = %+v", st)
	}
}

func TestManyChangesAllDisposed(t *testing.T) {
	r := newRepo()
	s := NewService(r, Config{Workers: 8})
	n := 12
	for i := 0; i < n; i++ {
		// Alternate between three independent files to exercise parallel
		// commits; same-file changes merge-conflict and get rejected.
		paths := []string{"lib/lib.go", "doc/readme.md", "app/main.go"}
		c := mkChange(r, fmt.Sprintf("c%02d", i), paths[i%3], fmt.Sprintf("v%d", i))
		if err := s.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.ProcessAll(ctx); err != nil {
		t.Fatal(err)
	}
	outs := s.Outcomes()
	if len(outs) != n {
		t.Fatalf("outcomes = %d, want %d", len(outs), n)
	}
	committed := 0
	for _, o := range outs {
		if o.State == change.StateCommitted {
			committed++
		}
	}
	// First change per file commits; later same-file ones conflict at merge
	// level and are rejected (they were authored against the original base).
	if committed != 3 {
		t.Fatalf("committed = %d, want 3", committed)
	}
	if s.PendingCount() != 0 {
		t.Fatalf("pending = %d", s.PendingCount())
	}
}

func TestBackgroundLoop(t *testing.T) {
	r := newRepo()
	s := NewService(r, Config{Workers: 2, Epoch: 5 * time.Millisecond})
	s.Start()
	s.Start() // idempotent
	defer s.Stop()
	if err := s.Submit(mkChange(r, "c1", "doc/readme.md", "doc v2")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.State("c1")
		if err != nil {
			t.Fatal(err)
		}
		if st.State == change.StateCommitted {
			s.Stop()
			s.Stop() // idempotent
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("change never committed by background loop")
}

func TestStatsExposed(t *testing.T) {
	r := newRepo()
	s := NewService(r, Config{Workers: 2})
	if err := s.Submit(mkChange(r, "c1", "lib/lib.go", "v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.BuildStats().Builds == 0 {
		t.Fatal("no builds recorded")
	}
	if s.AnalyzerStats().GraphBuilds == 0 {
		t.Fatal("no analyzer work recorded")
	}
}

func TestTickManualLoop(t *testing.T) {
	r := newRepo()
	s := NewService(r, Config{Workers: 2})
	if err := s.Submit(mkChange(r, "c1", "lib/lib.go", "v2")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for s.PendingCount() > 0 && time.Now().Before(deadline) {
		if err := s.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := s.State("c1")
	if st.State != change.StateCommitted {
		t.Fatalf("state = %+v", st)
	}
}

// TestShardedPlannerStatsReportHotfixPreemption: a sharded service sums its
// engines' planner counters, HotfixPreempted included — a pending hotfix
// aborts the over-grace build holding the only worker, and the preemption
// shows up through Service.PlannerStats.
func TestShardedPlannerStatsReportHotfixPreemption(t *testing.T) {
	r := newRepo()
	var clock atomic.Int64
	release := make(chan struct{})
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		if content, _ := snap.Read("doc/readme.md"); content == "hotfix" {
			return nil
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return buildsys.ErrAborted
		}
	})
	s := NewService(r, Config{
		Workers: 1, Shards: 1, Runner: runner, Sched: sched.Default(),
		PreemptionGrace: time.Second,
		Now:             func() time.Time { return time.Unix(1700000000+clock.Load(), 0) },
	})
	ctx := context.Background()
	tickUntil := func(what string, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, s.PlannerStats())
			}
			if err := s.Tick(ctx); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if err := s.Submit(mkChange(r, "c1", "lib/lib.go", "lib v2")); err != nil {
		t.Fatal(err)
	}
	tickUntil("c1's build to start", func() bool { return s.PlannerStats().BuildsStarted >= 1 })
	clock.Add(2) // c1's build is now past its preemption grace
	hot := mkChange(r, "h1", "doc/readme.md", "hotfix")
	hot.Class = change.ClassHotfix
	if err := s.Submit(hot); err != nil {
		t.Fatal(err)
	}
	tickUntil("the hotfix to preempt c1's build", func() bool { return s.PlannerStats().HotfixPreempted >= 1 })

	close(release)
	if err := s.ProcessAll(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []change.ID{"c1", "h1"} {
		if st, err := s.State(id); err != nil || st.State != change.StateCommitted {
			t.Errorf("%s = %+v, %v; want committed", id, st, err)
		}
	}
}

// waitUntil polls done until it holds, failing the test after ten seconds.
func waitUntil(t *testing.T, what string, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingRunner holds every step until its build is cancelled. started
// receives a token when a step begins; active counts steps not yet returned.
func blockingRunner(active *atomic.Int64, started chan<- struct{}) buildsys.StepRunner {
	return buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
		active.Add(1)
		defer active.Add(-1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return buildsys.ErrAborted
	})
}

// allBuildsEnded reports whether every build s started has finished and no
// runner call is still in flight.
func allBuildsEnded(s *Service, active *atomic.Int64) bool {
	st := s.BuildStats()
	return active.Load() == 0 && st.Aborted+st.Completed == st.Builds
}

// TestStopAbortsInFlightBuilds: Stop ends the background loop and aborts
// every build it started; no runner call outlives Stop's abort.
func TestStopAbortsInFlightBuilds(t *testing.T) {
	r := newRepo()
	var active atomic.Int64
	started := make(chan struct{}, 1)
	s := NewService(r, Config{Workers: 2, Epoch: time.Millisecond, Runner: blockingRunner(&active, started)})
	s.Start()
	for _, c := range []*change.Change{mkChange(r, "c1", "lib/lib.go", "lib v2"), mkChange(r, "c2", "doc/readme.md", "doc v2")} {
		if err := s.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	s.Stop()
	waitUntil(t, "every build to end", func() bool { return allBuildsEnded(s, &active) })
	st := s.BuildStats()
	if st.Builds == 0 || st.Aborted != st.Builds || st.Builds != s.PlannerStats().BuildsStarted {
		t.Fatalf("builds %d, aborted %d, planner started %d: Stop must abort every build started",
			st.Builds, st.Aborted, s.PlannerStats().BuildsStarted)
	}
	if n := s.PendingCount(); n != 2 {
		t.Fatalf("pending = %d, want 2", n)
	}
}

// TestProcessAllCancelled: cancelling ProcessAll's context ends the loop with
// an error wrapping planner.ErrStopped and leaves no build running.
func TestProcessAllCancelled(t *testing.T) {
	r := newRepo()
	var active atomic.Int64
	started := make(chan struct{}, 1)
	s := NewService(r, Config{Workers: 2, Runner: blockingRunner(&active, started)})
	if err := s.Submit(mkChange(r, "c1", "lib/lib.go", "lib v2")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		select {
		case <-started:
		case <-ctx.Done():
		}
		cancel()
	}()
	if err := s.ProcessAll(ctx); !errors.Is(err, planner.ErrStopped) {
		t.Fatalf("ProcessAll = %v, want planner.ErrStopped", err)
	}
	waitUntil(t, "every build to end", func() bool { return allBuildsEnded(s, &active) })
	if st := s.BuildStats(); st.Builds == 0 || st.Aborted != st.Builds {
		t.Fatalf("builds %d, aborted %d: cancellation must abort every build", st.Builds, st.Aborted)
	}
	if st, err := s.State("c1"); err != nil || st.State != change.StatePending {
		t.Fatalf("c1 = %+v, %v; want pending", st, err)
	}
}
