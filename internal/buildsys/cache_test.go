package buildsys

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// buildUnits runs one build per batch of 512 compile units
// "//u<from>:u" … "//u<to-1>:u" and returns the controller's stats after.
func buildUnits(t *testing.T, c *Controller, from, to int) Stats {
	t.Helper()
	for lo := from; lo < to; lo += 512 {
		names := make([]string, 0, 512)
		for i := lo; i < to && i < lo+512; i++ {
			names = append(names, fmt.Sprintf("//u%d:u", i))
		}
		if res := c.Run(context.Background(), Request{
			Key: fmt.Sprintf("b%d", lo), Steps: []change.BuildStep{compileStep}, Targets: targets(names...),
		}); !res.OK {
			t.Fatalf("build of units %d..: %+v", lo, res)
		}
	}
	return c.Stats()
}

// TestArtifactCacheBounded: however many distinct units run, the cache keeps
// at most two generations, yet a unit reused within a generation of its last
// use still hits — including across a rotation, which promotes it back.
func TestArtifactCacheBounded(t *testing.T) {
	c := NewController(4, nil)
	buildUnits(t, c, 0, 1)
	// One generation of other units later unit 0 sits in the old
	// generation; a hit promotes it.
	buildUnits(t, c, 1, 1+cacheGeneration)
	st := buildUnits(t, c, 0, 1)
	if st.SkippedCache != 1 {
		t.Fatalf("reuse after one generation: SkippedCache = %d, want 1", st.SkippedCache)
	}
	// Promoted, it survives another generation.
	buildUnits(t, c, 1+cacheGeneration, 1+2*cacheGeneration)
	if st = buildUnits(t, c, 0, 1); st.SkippedCache != 2 {
		t.Fatalf("reuse after promotion: SkippedCache = %d, want 2", st.SkippedCache)
	}
	// Six more generations of distinct units: the cache stays bounded and
	// unit 0, untouched since, is gone.
	for g := 2; g < 8; g++ {
		buildUnits(t, c, 1+g*cacheGeneration, 1+(g+1)*cacheGeneration)
		if n := len(c.cache) + len(c.old); n > 2*cacheGeneration {
			t.Fatalf("after %d generations the cache holds %d artifacts, want at most %d", g+1, n, 2*cacheGeneration)
		}
	}
	misses := c.Stats().CacheMisses
	if st = buildUnits(t, c, 0, 1); st.SkippedCache != 2 || st.CacheMisses != misses+1 {
		t.Fatalf("unit unused for six generations: SkippedCache %d, misses %d → %d; want an eviction miss", st.SkippedCache, misses, st.CacheMisses)
	}
}

// TestFailedClaimKeepsNewerSlot: a claimant whose slot was rotated out while
// it ran must not withdraw the slot a later claimant of the same unit has
// since filled.
func TestFailedClaimKeepsNewerSlot(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, _ change.BuildStep, target string, _ repo.Snapshot) error {
		if target == "//k:k" && calls.Add(1) == 1 {
			close(started)
			<-release
			return errors.New("first claim fails")
		}
		return nil
	})
	c := NewController(4, runner)
	req := Request{Steps: []change.BuildStep{compileStep}, Targets: targets("//k:k")}
	req.Key = "first"
	first := c.Start(context.Background(), req)
	<-started
	buildUnits(t, c, 0, 2*cacheGeneration+1) // the first claim's slot is dropped
	req.Key = "second"
	if res := c.Run(context.Background(), req); !res.OK {
		t.Fatalf("second claim: %+v", res)
	}
	close(release)
	if res := first.Result(); res.OK {
		t.Fatal("first claim succeeded, want its injected failure")
	}
	hits := c.Stats().SkippedCache
	req.Key = "third"
	if res := c.Run(context.Background(), req); !res.OK {
		t.Fatalf("third build: %+v", res)
	}
	if got := c.Stats().SkippedCache; got != hits+1 {
		t.Fatalf("third build of the unit: SkippedCache %d → %d, want a hit on the second claim's artifact", hits, got)
	}
}

// TestCountedBuildIsDone: once Stats counts a build as finished, its Done
// channel is already closed, so a caller that waits on the counters and then
// polls Done never sees a counted build as still running.
func TestCountedBuildIsDone(t *testing.T) {
	c := NewController(2, nil)
	for i := 0; i < 200; i++ {
		task := c.Start(context.Background(), Request{
			Key: fmt.Sprintf("b%d", i), Steps: []change.BuildStep{compileStep}, Targets: targets(fmt.Sprintf("//t%d:t", i)),
		})
		for c.Stats().Completed <= i {
			runtime.Gosched()
		}
		select {
		case <-task.Done():
		default:
			t.Fatalf("build %d is counted completed but Done is still open", i)
		}
	}
}
