package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// TestOnePoolOnSkewedLoad: the whole build budget is one pool. Eight
// workers, eight subtrees, and every change in two of them — a four-change
// conflict chain each — with every build held open until the test lets go:
// the engine speculates down both chains and fills all eight workers. A
// budget split per engine would cap the two busy subtrees at their engines'
// share, however idle the rest of the pool.
func TestOnePoolOnSkewedLoad(t *testing.T) {
	const workers = 8
	r := wakeRepo(8)
	release := make(chan struct{})
	var running, peak atomic.Int64
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
		n := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return buildsys.ErrAborted
		}
	})
	s := NewService(r, Config{Workers: workers, Runner: runner})
	var ids []change.ID
	for _, sub := range []string{"s0", "s1"} {
		for i, f := range wakeFiles {
			c := mkChange(r, fmt.Sprintf("%s-%d", sub, i), sub+"/"+f, sub+" "+f+" v1")
			if err := s.Submit(c); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, c.ID)
		}
	}
	s.Start()
	defer s.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for peak.Load() < workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := peak.Load()
	close(release)
	awaitDecided(t, s, ids, 10*time.Second)
	if got != workers {
		t.Fatalf("at most %d builds ran at once on a %d-worker pool with two busy subtrees", got, workers)
	}
	for _, id := range ids {
		if st, _ := s.State(id); st.State != change.StateCommitted {
			t.Errorf("%s: %+v, want committed", id, st)
		}
	}
}
