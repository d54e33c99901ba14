package shard_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
)

// stressWorkload builds a deterministic change list against the initial head
// of multiRepo(16): distinct slot-file creates per subtree, every tenth
// change build-broken, plus duplicate-create collisions so the merge-conflict
// path is exercised under concurrency. Patches never read the live head, so
// the same list drives both the baseline and the stress run.
func stressWorkload(n int) []*change.Change {
	out := make([]*change.Change, 0, n)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("component%02d/f%d.go", i%16, i/16)
		content := fmt.Sprintf("content %d", i)
		switch {
		case i%10 == 3:
			content = "BROKEN " + content
		case i > 0 && i%17 == 9:
			// Collide with the previous change's file: one of the two lands.
			path = fmt.Sprintf("component%02d/f%d.go", (i-1)%16, (i-1)/16)
		}
		out = append(out, &change.Change{
			ID:          change.ID(fmt.Sprintf("c%03d", i)),
			Author:      change.Developer{Name: "dev", Team: "t", Level: 3},
			Description: fmt.Sprintf("stress %03d", i),
			Patch: repo.Patch{Changes: []repo.FileChange{
				{Path: path, Op: repo.OpCreate, NewContent: content},
			}},
			BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
		})
	}
	return out
}

// TestStressLiveSubmit races a live submitter against the runtime's
// one-goroutine Run loop and the commit arbiter (run under -race by `make
// race`): changes arrive while earlier ones are mid-flight, and the final
// state must match a Quiesce run (ProcessAll) of the same workload submitted
// up front — same committed set, same head content for every landed change,
// and a green mainline at every commit.
func TestStressLiveSubmit(t *testing.T) {
	n := 64
	workload := stressWorkload(n)

	// Baseline: the identical change list, submitted before ProcessAll.
	baseRepo := multiRepo(16)
	base := core.NewService(baseRepo, core.Config{
		Workers: 8, Runner: brokenRunner(), Clock: fakeClock(),
	})
	for _, c := range workload {
		if err := base.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := base.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantCommitted, wantRejected := outcomeSets(base.Outcomes())

	// Stress run: background loop, live submitter feeding the intake while
	// the engine runs.
	r := multiRepo(16)
	s := core.NewService(r, core.Config{
		Workers: 8, Runner: brokenRunner(), Clock: fakeClock(),
	})
	s.Start()
	done := make(chan error, 1)
	go func() {
		for i, c := range workload {
			if err := s.Submit(c); err != nil {
				done <- fmt.Errorf("submit %s: %w", c.ID, err)
				return
			}
			if i%8 == 7 {
				time.Sleep(time.Millisecond) // let the engine overlap with arrivals
			}
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		s.Stop()
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for len(s.Outcomes()) < n {
		if time.Now().After(deadline) {
			s.Stop()
			t.Fatalf("timed out: %d/%d outcomes, %d pending", len(s.Outcomes()), n, s.PendingCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Stop()

	gotCommitted, gotRejected := outcomeSets(s.Outcomes())
	if len(gotCommitted) != len(wantCommitted) || len(gotRejected) != len(wantRejected) {
		t.Errorf("decisions: %d committed / %d rejected, want %d / %d",
			len(gotCommitted), len(gotRejected), len(wantCommitted), len(wantRejected))
	}
	for id := range wantCommitted {
		if !gotCommitted[id] {
			t.Errorf("%s committed by baseline but not under stress", id)
		}
	}
	for id := range wantRejected {
		if !gotRejected[id] {
			t.Errorf("%s rejected by baseline but not under stress", id)
		}
	}

	// Every committed change's content is at head, identical to baseline.
	baseSnap := baseRepo.Head().Snapshot()
	snap := r.Head().Snapshot()
	if snap.Len() != baseSnap.Len() {
		t.Errorf("head file count %d, baseline %d", snap.Len(), baseSnap.Len())
	}
	for _, p := range baseSnap.Paths() {
		want, _ := baseSnap.Read(p)
		if got, ok := snap.Read(p); !ok || got != want {
			t.Errorf("head file %s = %q, baseline %q", p, got, want)
		}
	}

	// Green invariant: no commit on the mainline ever contained broken code.
	for seq := 0; seq < r.Len(); seq++ {
		commit, err := r.At(seq)
		if err != nil {
			t.Fatalf("commit %d: %v", seq, err)
		}
		cs := commit.Snapshot()
		cs.Range(func(path, content string) bool {
			if strings.Contains(content, "BROKEN") {
				t.Errorf("green violation: commit %d has broken %s", seq, path)
				return false
			}
			return true
		})
	}

	ast := s.ArbiterStats()
	if ast.Commits != len(gotCommitted) {
		t.Errorf("arbiter commits = %d, committed outcomes = %d", ast.Commits, len(gotCommitted))
	}
	if ast.MaxQueueDepth < 1 {
		t.Errorf("arbiter depth never observed: %+v", ast)
	}
}

// TestOneDecisionEventPerChange runs the live stress load at 1 024 changes:
// the event feed holds exactly one decision event per decided change, and
// its type and detail (commit ID or rejection reason) are the change's
// state.
func TestOneDecisionEventPerChange(t *testing.T) {
	const n, ring = 1024, 1 << 16
	bus := events.NewBus(ring)
	s := core.NewService(multiRepo(16), core.Config{
		Workers: 8, Runner: brokenRunner(), Clock: fakeClock(), Events: bus,
	})
	s.Start()
	for i, c := range stressWorkload(n) {
		if err := s.Submit(c); err != nil {
			s.Stop()
			t.Fatal(err)
		}
		if i%8 == 7 {
			time.Sleep(time.Millisecond) // let the engine overlap with arrivals
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for s.OutcomeCount() < n {
		if time.Now().After(deadline) {
			s.Stop()
			t.Fatalf("timed out: %d/%d outcomes", s.OutcomeCount(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Stop()
	if bus.LastSeq() > ring {
		t.Fatalf("%d events overflowed the %d-event ring", bus.LastSeq(), ring)
	}
	decisions := map[change.ID][]events.Event{}
	for _, ev := range bus.Since(0) {
		if ev.Type == events.TypeCommitted || ev.Type == events.TypeRejected {
			decisions[ev.Change] = append(decisions[ev.Change], ev)
		}
	}
	for _, o := range s.Outcomes() {
		st, err := s.State(o.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := events.Event{Type: events.TypeCommitted, Detail: string(st.Commit)}
		if st.State == change.StateRejected {
			want = events.Event{Type: events.TypeRejected, Detail: st.Reason}
		}
		evs := decisions[o.ID]
		if len(evs) != 1 || evs[0].Type != want.Type || evs[0].Detail != want.Detail {
			t.Errorf("%s is %s (%q); its decision events: %+v", o.ID, st.State, want.Detail, evs)
		}
		delete(decisions, o.ID)
	}
	for id, evs := range decisions {
		t.Errorf("decision events for %s, which has no outcome: %+v", id, evs)
	}
}
