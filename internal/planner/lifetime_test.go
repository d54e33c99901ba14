package planner

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/repo"
	"mastergreen/internal/speculation"
)

// TestStartedBuildSurvivesLaterPlans pins copy-on-start: a speculation plan
// is the engine's scratch memory, overwritten by its next Plan call, so the
// builds the planner tracks as running must be its own copies. The test
// starts speculative builds, then drives the planner's engine through 100
// plans over unrelated changes and checks that every tracked build still
// reads the assumptions it was started with.
func TestStartedBuildSurvivesLaterPlans(t *testing.T) {
	block := make(chan struct{})
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return buildsys.ErrAborted
		}
	})
	e := newEnv(t, runner, Config{Budget: 4})
	// y depends on x, so c2 conflicts with c1 and is built speculatively.
	e.submit(t, "c1", "x/x.go", "x v2")
	e.submit(t, "c2", "y/y.go", "y v2")
	if _, err := e.planner.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A deep copy of every running build, taken field by field.
	snapshot := func() []speculation.Build {
		e.planner.mu.Lock()
		defer e.planner.mu.Unlock()
		var out []speculation.Build
		for _, rb := range e.planner.running {
			b := rb.build
			b.Assumed = append([]change.ID(nil), b.Assumed...)
			b.AssumedRejected = append([]change.ID(nil), b.AssumedRejected...)
			b.Changes = append([]change.ID(nil), b.Changes...)
			b.AssumedIdx = append([]int(nil), b.AssumedIdx...)
			b.AssumedRejectedIdx = append([]int(nil), b.AssumedRejectedIdx...)
			out = append(out, b)
		}
		return out
	}
	started := snapshot()
	assumptions := 0
	for _, b := range started {
		assumptions += len(b.Assumed) + len(b.AssumedRejected)
	}
	if len(started) < 2 || assumptions == 0 {
		t.Fatalf("want speculative builds running, got %+v", started)
	}

	other := make([]*change.Change, 8)
	for i := range other {
		other[i] = &change.Change{ID: change.ID(fmt.Sprintf("other%d", i))}
	}
	for round := 0; round < 100; round++ {
		e.planner.spec.Plan(speculation.Request{Pending: other[round%4:], Budget: 32})
	}

	if now := snapshot(); !reflect.DeepEqual(now, started) {
		t.Errorf("running builds changed under later plans:\n started %+v\n now     %+v", started, now)
	}
	close(block)
	e.quiesce(t)
}
