package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/clock"
	"mastergreen/internal/repo"
	"mastergreen/internal/sched"
)

// virtualResult is what one virtual-time run decides and spends.
type virtualResult struct {
	Committed []change.ID
	Rejected  []change.ID
	Builds    int
	P50, P95  time.Duration // virtual turnaround, submit to decision
}

// parkingRunner returns a runner whose step-units park on m for a fixed
// virtual time per step kind, then fail if their subtree holds a BROKEN
// source, and the number of units parked now. A unit counts as parked from
// just after its timer is armed until the timer fires or is stopped.
func parkingRunner(m *clock.Manual) (buildsys.StepRunner, *atomic.Int64) {
	var parked atomic.Int64
	return buildsys.RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		d := 3 * time.Millisecond
		if step.Kind == change.StepUnitTest {
			d = 4 * time.Millisecond
		}
		woke := make(chan struct{})
		tm := m.AfterFunc(d, func() { parked.Add(-1); close(woke) })
		parked.Add(1)
		select {
		case <-woke:
		case <-ctx.Done():
			if tm.Stop() {
				parked.Add(-1)
			}
			return buildsys.ErrAborted
		}
		dir, _, _ := strings.Cut(strings.TrimPrefix(target, "//"), ":")
		for _, f := range wakeFiles {
			if c, _ := snap.Read(dir + "/" + f); c == "BROKEN" {
				return errors.New("BROKEN")
			}
		}
		return nil
	}), &parked
}

// virtualRun submits a fixed stream of changes to a one-engine service with
// priority lanes on a manual clock, at fixed virtual instants, and ticks it
// once per virtual millisecond. The clock advances only when every build
// the controller counts as running has a unit parked on it, so each tick
// sees the same builds in the same state on every run.
func virtualRun(t *testing.T) virtualResult {
	t.Helper()
	t0 := time.Unix(1_700_000_000, 0)
	m := clock.NewManual(t0)
	runner, parked := parkingRunner(m)
	pol := sched.Default()
	pol.UrgencyHorizon = 20 * time.Millisecond
	s := NewService(wakeRepo(2), Config{Workers: 3, Sched: pol, Clock: m, Runner: runner})
	r := s.Repo()
	type submission struct {
		at             time.Duration
		id, path, body string
		class          change.Class
		due            time.Duration // deadline from t0 (0: none)
	}
	stream := []submission{
		{0, "a1", "s0/a.go", "a1", change.ClassNormal, 0},
		{0, "b1", "s1/a.go", "b1", change.ClassNormal, 0},
		{time.Millisecond, "a2", "s0/b.go", "BROKEN", change.ClassNormal, 0},
		{2 * time.Millisecond, "a3", "s0/c.go", "a3", change.ClassNormal, 0},
		{2 * time.Millisecond, "bulk", "s1/b.go", "bulk", change.ClassBulk, 30 * time.Millisecond},
		{4 * time.Millisecond, "b2", "s1/c.go", "b2", change.ClassNormal, 0},
		{5 * time.Millisecond, "a4", "s0/d.go", "a4", change.ClassNormal, 0},
		{6 * time.Millisecond, "hot", "s1/d.go", "hot", change.ClassHotfix, 0},
	}
	submitted := map[change.ID]time.Time{}
	running := func() int { st := s.BuildStats(); return st.Builds - st.Completed - st.Aborted }
	settle := func() {
		deadline := time.Now().Add(10 * time.Second)
		for int(parked.Load()) != running() {
			if time.Now().After(deadline) {
				t.Fatalf("at +%v: %d units parked, %d builds running", m.Now().Sub(t0), parked.Load(), running())
			}
			runtime.Gosched()
		}
	}
	ctx := context.Background()
	next := 0
	for step := 0; ; step++ {
		if step > 10_000 {
			t.Fatalf("undecided after %d virtual ms: %d pending", step, s.PendingCount())
		}
		settle()
		for ; next < len(stream) && !m.Now().Before(t0.Add(stream[next].at)); next++ {
			sub := stream[next]
			c := mkChange(r, sub.id, sub.path, sub.body)
			c.Class = sub.class
			if sub.due > 0 {
				c.Deadline = t0.Add(sub.due)
			}
			c.BuildSteps = append(c.BuildSteps, change.BuildStep{Name: "unit", Kind: change.StepUnitTest})
			if err := s.Submit(c); err != nil {
				t.Fatal(err)
			}
			submitted[c.ID] = c.SubmittedAt
		}
		if err := s.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		if next == len(stream) && s.PendingCount() == 0 {
			break
		}
		settle()
		m.Advance(time.Millisecond)
	}
	var res virtualResult
	var turns []time.Duration
	for _, o := range s.Outcomes() {
		if o.State == change.StateCommitted {
			res.Committed = append(res.Committed, o.ID)
		} else {
			res.Rejected = append(res.Rejected, o.ID)
		}
		turns = append(turns, o.At.Sub(submitted[o.ID]))
	}
	slices.Sort(turns)
	res.Builds = s.BuildStats().Builds
	res.P50, res.P95 = turns[(len(turns)-1)*50/100], turns[(len(turns)-1)*95/100]
	return res
}

// TestVirtualTimeIsDeterministic: on a manual clock, with one engine, a
// deadlined bulk change and a hotfix in the stream, every run commits the
// same sequence, rejects the same change, starts the same builds and has the
// same virtual turnaround P50 and P95 (100 runs; 10 with -short). The values
// are pinned too, so runs in different processes agree as well.
func TestVirtualTimeIsDeterministic(t *testing.T) {
	runs := 100
	if testing.Short() {
		runs = 10
	}
	want := virtualResult{
		Committed: []change.ID{"b1", "bulk", "b2", "hot", "a1", "a3", "a4"},
		Rejected:  []change.ID{"a2"},
		Builds:    13,
		P50:       11 * time.Millisecond,
		P95:       19 * time.Millisecond,
	}
	for i := 0; i < runs; i++ {
		if got := virtualRun(t); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: %+v, want %+v", i, got, want)
		}
	}
}
