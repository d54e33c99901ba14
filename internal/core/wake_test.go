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
// and fails the test if that takes longer than limit.
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
			t.Fatalf("%d of %d changes undecided %v after Start (first: %+v)", undecided, len(ids), limit, first)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBuildEndWakesEngine: with a fallback poll of an hour, only the wake
// edges drive the fleet — a decisive build's end wakes its engine, and an
// engine tick that made progress wakes the coordinator, which merges the
// decision into the outcome log. A three-change chain and one broken change
// must all be decided within 2 s of Start.
func TestBuildEndWakesEngine(t *testing.T) {
	r := wakeRepo(2)
	var cs []*change.Change
	for i, f := range wakeFiles[:3] {
		cs = append(cs, mkChange(r, fmt.Sprintf("chain%d", i), "s0/"+f, "chain v1"))
	}
	cs = append(cs, mkChange(r, "broken", "s1/a.go", "BROKEN"))
	s := NewService(r, Config{Epoch: time.Hour, Shards: 4, Runner: brokenRunner()})
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
	s := NewService(r, Config{Workers: 8, Epoch: time.Hour, Shards: 2, Runner: brokenRunner()})
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
