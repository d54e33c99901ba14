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
		var first Status
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

// TestSchedAgingWakesIdleEngine: with every build held, the only event left
// is a deadline aging a pending change's weight. The planner arms its own
// timer for the next instant the printed weight can change, so the engine
// keeps replanning — dozens of times over a 400 ms urgency horizon — and
// stops once the deadline has passed and the weight can move no more.
func TestSchedAgingWakesIdleEngine(t *testing.T) {
	r := wakeRepo(1)
	pol := sched.Default()
	pol.UrgencyHorizon = 400 * time.Millisecond
	var active atomic.Int64
	started := make(chan struct{}, 1)
	s := NewService(r, Config{Sched: pol, Runner: blockingRunner(&active, started)})
	c := mkChange(r, "aging", "s0/a.go", "aging v1")
	c.Class, c.Deadline = change.ClassBulk, time.Now().Add(pol.UrgencyHorizon)
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	<-started
	before := s.PlannerStats().PlansComputed
	time.Sleep(300 * time.Millisecond)
	if n := s.PlannerStats().PlansComputed - before; n < 5 {
		t.Fatalf("%d replans while the weight aged for 300 ms, want at least 5", n)
	}
	time.Sleep(time.Until(c.Deadline) + 50*time.Millisecond)
	before = s.PlannerStats().PlansComputed
	time.Sleep(150 * time.Millisecond)
	if n := s.PlannerStats().PlansComputed - before; n != 0 {
		t.Fatalf("%d replans after the deadline, want 0: the weight is at its maximum", n)
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
