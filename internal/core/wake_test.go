package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/clock"
	"mastergreen/internal/planner"
	"mastergreen/internal/repo"
	"mastergreen/internal/sched"
)

// wakeFiles are the sources of each subtree's one target in wakeRepo: four
// changes to one subtree form a conflict chain without merge conflicts.
var wakeFiles = []string{"a.go", "b.go", "c.go", "d.go"}

// wakeRepo returns a repository of n subtrees s0…s{n-1}, each holding one
// target built from wakeFiles.
func wakeRepo(n int) *repo.Repo {
	files := map[string]string{}
	for i := 0; i < n; i++ {
		dir := fmt.Sprintf("s%d", i)
		files[dir+"/BUILD"] = fmt.Sprintf("target %s srcs=%s", dir, strings.Join(wakeFiles, ","))
		for _, f := range wakeFiles {
			files[dir+"/"+f] = dir + " " + f + " v0"
		}
	}
	return repo.New(files)
}

// brokenRunner fails a target's steps when one of its subtree's files reads
// BROKEN in the build's snapshot, after a short pause on every third unit so
// build ends interleave with the engines' ticks.
func brokenRunner() buildsys.StepRunner {
	var units atomic.Int64
	return buildsys.RunnerFunc(func(_ context.Context, _ change.BuildStep, target string, snap repo.Snapshot) error {
		if units.Add(1)%3 == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		dir, _, _ := strings.Cut(strings.TrimPrefix(target, "//"), ":")
		for _, f := range wakeFiles {
			if c, _ := snap.Read(dir + "/" + f); c == "BROKEN" {
				return errors.New("BROKEN")
			}
		}
		return nil
	})
}

// awaitDecided polls every id's status until all are committed or rejected,
// and fails the test if that takes longer than limit from the call.
func awaitDecided(t *testing.T, s *Service, ids []change.ID, limit time.Duration) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for {
		undecided := 0
		var first planner.Outcome
		for _, id := range ids {
			st, err := s.State(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != change.StateCommitted && st.State != change.StateRejected {
				if undecided == 0 {
					first = st
				}
				undecided++
			}
		}
		if undecided == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d changes undecided after %v (first: %+v)", undecided, len(ids), limit, first)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBuildEndWakesEngine: with a fallback poll of an hour, only the wake
// edges drive the fleet — a decisive build's end wakes its engine, and an
// engine tick that made progress wakes the coordinator, whose merge wakes
// the publisher. A three-change chain and one broken change
// must all be decided within 2 s of Start.
func TestBuildEndWakesEngine(t *testing.T) {
	r := wakeRepo(2)
	var cs []*change.Change
	for i, f := range wakeFiles[:3] {
		cs = append(cs, mkChange(r, fmt.Sprintf("chain%d", i), "s0/"+f, "chain v1"))
	}
	cs = append(cs, mkChange(r, "broken", "s1/a.go", "BROKEN"))
	s := NewService(r, Config{Shards: 4, Runner: brokenRunner()})
	var ids []change.ID
	for _, c := range cs {
		if err := s.Submit(c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID)
	}
	s.Start()
	defer s.Stop()
	awaitDecided(t, s, ids, 2*time.Second)
	for _, id := range ids {
		st, _ := s.State(id)
		if want := id != "broken"; (st.State == change.StateCommitted) != want {
			t.Errorf("%s: %+v, want committed=%v", id, st, want)
		}
	}
}

// TestWakeStressNoLostWakeup races build ends, engine ticks, arming and
// coordinator partitions with nothing but the wake edges to drive them (the
// fallback poll is an hour). Each wave submits a four-change chain per
// subtree — one wave's chain holds a broken change, so builds that assumed it
// commits die and those that assumed it fails become decisive — plus one
// independent change per spare subtree, over two engines that speculate four
// builds deep. A lost wakeup leaves a change pending for the hour and fails
// the wave. `make race-wake` runs it under -race, 20 times.
func TestWakeStressNoLostWakeup(t *testing.T) {
	const subtrees, chains, waves = 8, 4, 3
	r := wakeRepo(subtrees)
	s := NewService(r, Config{Workers: 8, Shards: 2, Runner: brokenRunner()})
	for w := 0; w < waves; w++ {
		var ids []change.ID
		for i := 0; i < subtrees; i++ {
			files := wakeFiles
			if i >= chains {
				files = files[:1]
			}
			for _, f := range files {
				content := fmt.Sprintf("wave %d", w)
				if i == w%chains && f == "b.go" {
					content = "BROKEN"
				}
				c := mkChange(r, fmt.Sprintf("w%d-s%d-%s", w, i, f), fmt.Sprintf("s%d/%s", i, f), content)
				if err := s.Submit(c); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, c.ID)
			}
		}
		s.Start()
		awaitDecided(t, s, ids, 10*time.Second)
		s.Stop()
		rejected := 0
		for _, id := range ids {
			if st, _ := s.State(id); st.State == change.StateRejected {
				rejected++
			}
		}
		if rejected != 1 {
			t.Fatalf("wave %d: %d rejections, want the one broken change", w, rejected)
		}
	}
}

// TestIdleSubmitDecidesWithoutPoll: a submission wakes the coordinator, so a
// change sent to an idle, started service is adopted, built and decided at
// once — not at the next tick of a poll. Eight changes go in one at a time
// at the default Config; each must be decided within 25 ms of its Submit.
func TestIdleSubmitDecidesWithoutPoll(t *testing.T) {
	r := wakeRepo(8)
	s := NewService(r, Config{})
	s.Start()
	defer s.Stop()
	time.Sleep(20 * time.Millisecond) // let the first ticks pass
	for i := 0; i < 8; i++ {
		c := mkChange(r, fmt.Sprintf("idle%d", i), fmt.Sprintf("s%d/a.go", i), "idle v1")
		if err := s.Submit(c); err != nil {
			t.Fatal(err)
		}
		awaitDecided(t, s, []change.ID{c.ID}, 25*time.Millisecond)
		time.Sleep(5 * time.Millisecond) // idle again before the next one
	}
}

// TestIdleEngineDoesNotTick: with nothing pending, nothing wakes the engine
// or the coordinator, so for half a second neither ticks nor partitions.
func TestIdleEngineDoesNotTick(t *testing.T) {
	r := wakeRepo(1)
	s := NewService(r, Config{Shards: 2})
	s.Start()
	defer s.Stop()
	c := mkChange(r, "once", "s0/a.go", "once v1")
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	awaitDecided(t, s, []change.ID{c.ID}, 2*time.Second)
	ticks := func() (int, int) {
		ps := s.PlannerStats()
		return ps.PlansSkipped + ps.PlansComputed, s.ShardStats().Partitions
	}
	plans, parts := ticks()
	for i := 0; i < 40; i++ { // let the ticks the decision caused pass
		time.Sleep(50 * time.Millisecond)
		p2, q2 := ticks()
		if p2 == plans && q2 == parts {
			break
		}
		plans, parts = p2, q2
	}
	time.Sleep(500 * time.Millisecond)
	if p2, q2 := ticks(); p2 != plans || q2 != parts {
		t.Fatalf("idle for 500 ms: %d engine ticks and %d partitions, want 0", p2-plans, q2-parts)
	}
}

// quietPlans waits until the engines have computed more than after plans,
// have stopped ticking, and leave armed timers armed on m. It returns the
// plans computed and the engine ticks so far.
func quietPlans(t *testing.T, s *Service, m *clock.Manual, what string, after, armed int) (plans, ticks int) {
	t.Helper()
	deadline, last := time.Now().Add(5*time.Second), -1
	for {
		ps := s.PlannerStats()
		plans, ticks = ps.PlansComputed, ps.PlansComputed+ps.PlansSkipped
		if plans > after && ticks == last && m.Armed() == armed {
			return plans, ticks
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d timers armed, %+v", what, m.Armed(), ps)
		}
		last = ticks
		time.Sleep(2 * time.Millisecond)
	}
}

// agingService starts a service on a manual clock whose one bulk change, due
// horizon from now, holds its build until Stop, so the only event left is
// the deadline aging the change's weight.
func agingService(t *testing.T, horizon time.Duration) (*Service, *clock.Manual, *change.Change, *sched.Policy) {
	t.Helper()
	r := wakeRepo(1)
	pol := sched.Default()
	pol.UrgencyHorizon = horizon
	m := clock.NewManual(time.Unix(1_700_000_000, 0))
	var active atomic.Int64
	started := make(chan struct{}, 1)
	s := NewService(r, Config{Sched: pol, Runner: blockingRunner(&active, started), Clock: m})
	c := mkChange(r, "aging", "s0/a.go", "aging v1")
	c.Class, c.Deadline = change.ClassBulk, m.Now().Add(horizon)
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)
	<-started
	return s, m, c, pol
}

// TestSchedAgingWakesIdleEngine: with every build held, the only event left
// is a deadline aging a pending change's weight. The planner arms its own
// timer on the service's clock for the next instant the printed weight can
// change, so the engine replans at every 10 ms step of a 400 ms urgency
// horizon, and once the deadline has passed and the weight can move no more
// it disarms the timer and stays idle however far the clock moves.
func TestSchedAgingWakesIdleEngine(t *testing.T) {
	s, m, _, _ := agingService(t, 400*time.Millisecond)
	plans, _ := quietPlans(t, s, m, "the first plan to arm the aging timer", 0, 1)
	for step := 1; step <= 30; step++ {
		m.Advance(10 * time.Millisecond)
		plans, _ = quietPlans(t, s, m, fmt.Sprintf("a replan %d ms into the horizon", 10*step), plans, 1)
	}
	m.Advance(150 * time.Millisecond)
	plans, ticks := quietPlans(t, s, m, "a replan past the deadline that disarms the timer", plans, 0)
	m.Advance(time.Hour)
	time.Sleep(20 * time.Millisecond)
	if ps := s.PlannerStats(); ps.PlansComputed != plans || ps.PlansComputed+ps.PlansSkipped != ticks {
		t.Fatalf("%d replans and %d ticks an hour after the deadline, want 0: the weight is at its maximum",
			ps.PlansComputed-plans, ps.PlansComputed+ps.PlansSkipped-ticks)
	}
}

// TestFrozenClockDoesNotSpin: the aging timer counts the service's clock, not
// the wall. With a deadlined bulk change pending whose printed weight next
// moves a few virtual milliseconds ahead, and the clock not moving, the
// engine gets no wake in 200 ms of real time; one Advance past that instant
// wakes it, and it replans once.
func TestFrozenClockDoesNotSpin(t *testing.T) {
	s, m, c, pol := agingService(t, 400*time.Millisecond)
	engineTicks := func() int { ps := s.PlannerStats(); return ps.PlansComputed + ps.PlansSkipped }
	ticks := engineTicks()
	for i := 0; i < 40; i++ { // let the ticks the start caused pass
		time.Sleep(50 * time.Millisecond)
		n := engineTicks()
		if n == ticks {
			break
		}
		ticks = n
	}
	time.Sleep(200 * time.Millisecond)
	if n := engineTicks() - ticks; n != 0 {
		t.Fatalf("the engine woke %d times in 200 ms on a frozen clock, want 0", n)
	}
	if n := m.Armed(); n != 1 {
		t.Fatalf("%d timers armed on the service's clock, want the aging timer", n)
	}
	plans := s.PlannerStats().PlansComputed
	w := pol.Weight(c.Class, c.Deadline, m.Now())
	next := pol.ReachesAt(c.Class, c.Deadline, (math.Floor(w*10-0.5)+1.5)/10)
	m.Advance(next.Sub(m.Now()) + 2*time.Millisecond)
	if p2, t2 := quietPlans(t, s, m, "a replan once the weight moved", plans, 1); p2 != plans+1 || t2 != ticks+1 {
		t.Fatalf("%d replans in %d ticks after one Advance, want 1 in 1", p2-plans, t2-ticks)
	}
}

// TestSpeculativeOnlyEngineStaysLive: with one worker, a hotfix behind a
// conflicting normal change plans its build that assumes the change commits
// first, so the only running build is speculative. Its end must still wake
// the engine — nothing else would — which then builds and decides both.
func TestSpeculativeOnlyEngineStaysLive(t *testing.T) {
	r := wakeRepo(1)
	speculativeOnly(t, r, mkChange(r, "normal", "s0/a.go", "normal v1"), mkChange(r, "hotfix", "s0/b.go", "hotfix v1"), change.StateCommitted)
}

// TestSpeculativeMergeFailureStaysLive: as above, but both changes modify
// s0/a.go from the same base, so the hotfix's speculative build fails to
// merge before it can start and nothing is left running. The synthetic
// result must wake the engine, which then builds the normal change and
// rejects the hotfix against the new head.
func TestSpeculativeMergeFailureStaysLive(t *testing.T) {
	r := wakeRepo(1)
	speculativeOnly(t, r, mkChange(r, "normal", "s0/a.go", "normal v1"), mkChange(r, "hotfix", "s0/a.go", "hotfix v1"), change.StateRejected)
}

// speculativeOnly submits normal, then hotfix as a hotfix, to a one-worker
// service and requires ProcessAll to commit normal and leave hotfix in the
// state want within 5 s.
func speculativeOnly(t *testing.T, r *repo.Repo, normal, hotfix *change.Change, want change.State) {
	t.Helper()
	s := NewService(r, Config{Workers: 1, Sched: sched.Default(), Runner: brokenRunner()})
	hotfix.Class = change.ClassHotfix
	for _, c := range []*change.Change{normal, hotfix} {
		if err := s.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.ProcessAll(ctx); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.State(normal.ID); st.State != change.StateCommitted {
		t.Errorf("%s: %+v, want committed", normal.ID, st)
	}
	if st, _ := s.State(hotfix.ID); st.State != want {
		t.Errorf("%s: %+v, want %v", hotfix.ID, st, want)
	}
}
