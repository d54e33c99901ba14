package planner

import (
	"fmt"
	"sync"
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// TestTickingPlannerRaceStress drives a live planner loop while other
// goroutines submit changes and read the concurrently-accessed surfaces:
// SpecStats.Counts (written by reap as speculations finish), planner Stats
// and running counts. Run with -race; it covers the previously
// unsynchronized Spec.Succeeded++/Failed++ mutation.
func TestTickingPlannerRaceStress(t *testing.T) {
	runPlannerRaceStress(t, 0)
}

// TestTickingPlannerRaceStressWithSkipping runs the same load with
// predictor-gated skipping enabled, so eager obsolete pruning and skipped
// branch points race the observability readers too.
func TestTickingPlannerRaceStressWithSkipping(t *testing.T) {
	runPlannerRaceStress(t, 0.85)
}

// runPlannerRaceStress runs the load with the engine's SkipThreshold set to
// skip (zero disables skipping).
func runPlannerRaceStress(t *testing.T, skip float64) {
	const nChanges = 60
	e := newEnv(t, nil, Config{Budget: 4})
	e.planner.spec.SkipThreshold = skip

	var mu sync.Mutex
	var submitted []*change.Change
	var wg, subWg sync.WaitGroup
	stop := make(chan struct{})

	// Submitter: feeds the queue while the planner is live. Every third
	// change collides on x/x.go so rejections, aborts, and rejection-assumed
	// speculations all occur under load.
	subWg.Add(1)
	go func() {
		defer subWg.Done()
		for i := 0; i < nChanges; i++ {
			path := fmt.Sprintf("z%d/f.go", i)
			fc := repo.FileChange{Path: path, Op: repo.OpCreate, NewContent: "v1"}
			if i%3 == 0 {
				head := e.repo.Head().Snapshot()
				if cur, ok := head.Read("x/x.go"); ok {
					fc = repo.FileChange{Path: "x/x.go", Op: repo.OpModify,
						BaseHash: repo.HashContent(cur), NewContent: fmt.Sprintf("x v%d", i)}
				}
			}
			c := &change.Change{
				ID:         change.ID(fmt.Sprintf("s%d", i)),
				Patch:      repo.Patch{Changes: []repo.FileChange{fc}},
				BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
			}
			if err := e.queue.Enqueue(c); err != nil {
				continue
			}
			mu.Lock()
			submitted = append(submitted, c)
			mu.Unlock()
		}
	}()

	// Readers: the predictor-style fan-out reading speculation features,
	// plus observability surfaces, all while reap mutates them.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				changes := append([]*change.Change(nil), submitted...)
				mu.Unlock()
				var total int64
				for _, c := range changes {
					ok, failed := c.Spec.Counts()
					total += ok + failed
				}
				_ = total
				_ = e.planner.Stats()
				_ = running(e.planner)
			}
		}()
	}

	// The planner loop itself (single goroutine; Tick is not reentrant).
	e.quiesce(t)
	// The submitter may still be racing the final ticks; wait for it and
	// drain whatever it added after the first quiescence.
	subWg.Wait()
	e.quiesce(t)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	resolved := 0
	for _, c := range submitted {
		if e.decision(c.ID).State != change.StatePending {
			resolved++
		}
	}
	if resolved != len(submitted) {
		t.Fatalf("resolved %d of %d submitted changes", resolved, len(submitted))
	}
	st := e.planner.Stats()
	if st.BuildsStarted == 0 || st.PlansComputed == 0 {
		t.Fatalf("planner idle under stress: %+v", st)
	}
}
