package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// TestCostPerChangeDoesNotGrowWithHistory is the history-length guard: a
// service that has landed thousands of changes must decide the next one for
// what the first ones cost. It pushes instant-build changes through the
// service in waves — one rewrite of a fixed-size file per subtree, so the
// tree and every patch stay the same size — and compares the bytes allocated
// per decided change over the last sixth of the run with the first sixth.
// Anything that carries the committed history per decision (build keys once
// did) makes the ratio climb with the length of the run.
func TestCostPerChangeDoesNotGrowWithHistory(t *testing.T) {
	const subtrees = 6
	total, window := 3000, 500
	if testing.Short() {
		total, window = 1200, 200 // the race detector multiplies the run time
	}
	files := map[string]string{}
	for s := 0; s < subtrees; s++ {
		files[fmt.Sprintf("sub%d/BUILD", s)] = "target t srcs=f.go"
		files[fmt.Sprintf("sub%d/f.go", s)] = "rev 0000000"
	}
	r := repo.New(files)
	svc := NewService(r, Config{Workers: subtrees})
	ctx := context.Background()
	decided := 0
	wave := func() {
		for s := 0; s < subtrees; s++ {
			path := fmt.Sprintf("sub%d/f.go", s)
			c := mkChange(r, fmt.Sprintf("c%07d", decided+s), path, fmt.Sprintf("rev %07d", decided+s+1))
			if err := svc.Submit(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.ProcessAll(ctx); err != nil {
			t.Fatal(err)
		}
		decided += subtrees
	}
	bytesPerChange := func(upTo int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := decided
		for decided < upTo {
			wave()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(decided-start)
	}
	first := bytesPerChange(window)
	for decided < total-window {
		wave()
	}
	last := bytesPerChange(total)
	for _, o := range svc.Outcomes() {
		if o.State != change.StateCommitted {
			t.Fatalf("%s: %v %s", o.ID, o.State, o.Reason)
		}
	}
	t.Logf("%d changes: %.0f B/change over the first %d, %.0f over the last %d", decided, first, window, last, window)
	if last > 1.3*first {
		t.Errorf("the last %d changes cost %.0f B each, the first %d only %.0f: cost per change grows with the history",
			window, last, window, first)
	}
}
