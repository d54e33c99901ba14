package buildsys

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/metrics"
	"mastergreen/internal/repo"
)

var compileStep = change.BuildStep{Name: "compile", Kind: change.StepCompile}

func targets(names ...string) map[string]string {
	m := make(map[string]string, len(names))
	for _, n := range names {
		m[n] = "hash-of-" + n
	}
	return m
}

// TestNilRunnerSucceeds: a nil runner completes every build successfully.
func TestNilRunnerSucceeds(t *testing.T) {
	c := NewController(2, nil)
	res := c.Run(context.Background(), Request{
		Key:     "b1",
		Steps:   []change.BuildStep{compileStep},
		Targets: targets("//a:a", "//b:b"),
	})
	if !res.OK || res.Err != nil {
		t.Fatalf("Run = %+v, want OK", res)
	}
	st := c.Stats()
	if st.Builds != 1 || st.Completed != 1 || st.Executed != 2 {
		t.Errorf("Stats = %+v, want 1 build, 1 completed, 2 executed", st)
	}
}

// TestCancelAborts: cancelling an in-flight build yields ErrAborted and the
// build never reports success.
func TestCancelAborts(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		close(started)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	c := NewController(2, runner)
	task := c.Start(context.Background(), Request{
		Key:     "b1",
		Steps:   []change.BuildStep{compileStep},
		Targets: targets("//a:a"),
	})
	<-started
	task.Cancel()
	res := task.Result()
	close(release)
	if res.OK {
		t.Fatal("cancelled build reported OK")
	}
	if !errors.Is(res.Err, ErrAborted) {
		t.Fatalf("Err = %v, want ErrAborted", res.Err)
	}
	if st := c.Stats(); st.Aborted != 1 || st.Completed != 0 {
		t.Errorf("Stats = %+v, want 1 aborted, 0 completed", st)
	}
}

// TestCancelDoesNotLeakResult: cancelling before the work drains still closes
// Done promptly — the caller never blocks on a dead build.
func TestCancelDoesNotLeakResult(t *testing.T) {
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		<-ctx.Done()
		return ctx.Err()
	})
	c := NewController(1, runner)
	task := c.Start(context.Background(), Request{
		Key:     "b1",
		Steps:   []change.BuildStep{compileStep},
		Targets: targets("//a:a", "//b:b", "//c:c"),
	})
	task.Cancel()
	select {
	case <-task.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not closed after Cancel")
	}
	if !errors.Is(task.Result().Err, ErrAborted) {
		t.Fatalf("Err = %v, want ErrAborted", task.Result().Err)
	}
}

// TestPriorTargetsSkipped: targets built by the speculation prefix are not
// re-executed (§6 minimal build steps).
func TestPriorTargetsSkipped(t *testing.T) {
	var ran atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		ran.Add(1)
		return nil
	})
	c := NewController(2, runner)
	res := c.Run(context.Background(), Request{
		Key:          "b1",
		Steps:        []change.BuildStep{compileStep},
		Targets:      targets("//a:a", "//b:b", "//c:c"),
		PriorTargets: map[string]bool{"//a:a": true, "//b:b": true},
	})
	if !res.OK {
		t.Fatalf("Run = %+v, want OK", res)
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("runner executed %d units, want 1", got)
	}
	if st := c.Stats(); st.SkippedPrior != 2 || st.Executed != 1 {
		t.Errorf("Stats = %+v, want SkippedPrior=2 Executed=1", st)
	}
}

// TestArtifactCacheHit: a second build of the same (target, hash, kind)
// reuses the artifact instead of re-executing, and Stats counts the hit.
func TestArtifactCacheHit(t *testing.T) {
	var ran atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		ran.Add(1)
		return nil
	})
	c := NewController(2, runner)
	req := Request{Key: "b1", Steps: []change.BuildStep{compileStep}, Targets: targets("//a:a", "//b:b")}
	if res := c.Run(context.Background(), req); !res.OK {
		t.Fatalf("first build: %+v", res)
	}
	req.Key = "b2"
	if res := c.Run(context.Background(), req); !res.OK {
		t.Fatalf("second build: %+v", res)
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("runner executed %d units, want 2 (second build fully cached)", got)
	}
	st := c.Stats()
	if st.SkippedCache != 2 || st.CacheMisses != 2 {
		t.Errorf("Stats = %+v, want SkippedCache=2 CacheMisses=2", st)
	}
}

// TestCacheMissOnNewHash: a changed target hash is a different content
// address — no false sharing across versions.
func TestCacheMissOnNewHash(t *testing.T) {
	var ran atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		ran.Add(1)
		return nil
	})
	c := NewController(2, runner)
	c.Run(context.Background(), Request{
		Key: "b1", Steps: []change.BuildStep{compileStep},
		Targets: map[string]string{"//a:a": "h1"},
	})
	c.Run(context.Background(), Request{
		Key: "b2", Steps: []change.BuildStep{compileStep},
		Targets: map[string]string{"//a:a": "h2"},
	})
	if got := ran.Load(); got != 2 {
		t.Errorf("runner executed %d units, want 2 (hash change must miss)", got)
	}
	if st := c.Stats(); st.SkippedCache != 0 {
		t.Errorf("SkippedCache = %d, want 0", st.SkippedCache)
	}
}

// TestFailureNotCached: a failed unit is not cached; a later build re-runs it
// and can succeed.
func TestFailureNotCached(t *testing.T) {
	var calls atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		if calls.Add(1) == 1 {
			return fmt.Errorf("compile error")
		}
		return nil
	})
	c := NewController(2, runner)
	req := Request{Key: "b1", Steps: []change.BuildStep{compileStep}, Targets: targets("//a:a")}
	res := c.Run(context.Background(), req)
	if res.OK || res.FailedStep != "compile" {
		t.Fatalf("first build = %+v, want failure at compile", res)
	}
	req.Key = "b2"
	if res := c.Run(context.Background(), req); !res.OK {
		t.Fatalf("retry build = %+v, want OK", res)
	}
	if st := c.Stats(); st.SkippedCache != 0 {
		t.Errorf("SkippedCache = %d, want 0 (failures must not be cached)", st.SkippedCache)
	}
}

// TestConcurrentBuildsCoalesce: two concurrent builds of the same targets
// execute each unit once; the loser of the claim race waits and reuses.
func TestConcurrentBuildsCoalesce(t *testing.T) {
	var ran atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		ran.Add(1)
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	c := NewController(4, runner)
	req1 := Request{Key: "b1", Steps: []change.BuildStep{compileStep}, Targets: targets("//a:a", "//b:b")}
	req2 := req1
	req2.Key = "b2"
	t1 := c.Start(context.Background(), req1)
	t2 := c.Start(context.Background(), req2)
	if r := t1.Result(); !r.OK {
		t.Fatalf("b1 = %+v", r)
	}
	if r := t2.Result(); !r.OK {
		t.Fatalf("b2 = %+v", r)
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("runner executed %d units, want 2 (concurrent duplicates coalesce)", got)
	}
	if st := c.Stats(); st.SkippedCache != 2 {
		t.Errorf("SkippedCache = %d, want 2", st.SkippedCache)
	}
}

// TestStepOrderAndFailureStopsBuild: steps run in order; a failing step names
// itself in FailedStep and later steps never run.
func TestStepOrderAndFailureStopsBuild(t *testing.T) {
	var seen []string
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		seen = append(seen, step.Name)
		if step.Kind == change.StepUnitTest {
			return fmt.Errorf("test failed")
		}
		return nil
	})
	c := NewController(1, runner)
	res := c.Run(context.Background(), Request{
		Key: "b1",
		Steps: []change.BuildStep{
			{Name: "compile", Kind: change.StepCompile},
			{Name: "unit", Kind: change.StepUnitTest},
			{Name: "ui", Kind: change.StepUITest},
		},
		Targets: targets("//a:a"),
	})
	if res.OK || res.FailedStep != "unit" {
		t.Fatalf("Run = %+v, want failure at unit", res)
	}
	if len(seen) != 2 || seen[0] != "compile" || seen[1] != "unit" {
		t.Errorf("steps seen = %v, want [compile unit]", seen)
	}
}

// TestEmptyTargetBuildRuns: a build with no affected targets still runs each
// step once (repo-wide), so empty changes exercise the runner.
func TestEmptyTargetBuildRuns(t *testing.T) {
	var ran atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		if target != "" {
			t.Errorf("empty-target build passed target %q", target)
		}
		ran.Add(1)
		return nil
	})
	c := NewController(2, runner)
	res := c.Run(context.Background(), Request{
		Key:   "b1",
		Steps: []change.BuildStep{compileStep, {Name: "unit", Kind: change.StepUnitTest}},
	})
	if !res.OK {
		t.Fatalf("Run = %+v, want OK", res)
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("runner executed %d units, want 2 (one per step)", got)
	}
	if st := c.Stats(); st.SkippedCache != 0 || st.CacheMisses != 0 {
		t.Errorf("Stats = %+v, want no cache traffic for repo-wide units", st)
	}
}

// TestWorkerPoolBound: no more than `workers` units execute at once.
func TestWorkerPoolBound(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return nil
	})
	c := NewController(workers, runner)
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("//t:t%d", i)
	}
	if res := c.Run(context.Background(), Request{
		Key: "b1", Steps: []change.BuildStep{compileStep}, Targets: targets(names...),
	}); !res.OK {
		t.Fatalf("Run = %+v", res)
	}
	if got := max.Load(); got > workers {
		t.Errorf("max concurrency = %d, want <= %d", got, workers)
	}
}

// fakeClock returns a clock function that advances by step on every call, so
// each timed step-unit reports exactly one step of executed wall time.
func fakeClock(step time.Duration) func() time.Time {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(step)
		return now
	}
}

// TestComputeAccounting: executed step-unit wall time is attributed per
// (build, target, step kind) and rolled up into the controller stats, with a
// completed build's compute counted as useful.
func TestComputeAccounting(t *testing.T) {
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		return nil
	})
	c := NewController(1, runner) // one worker: the fake clock ticks serially
	c.SetClock(fakeClock(500 * time.Millisecond))
	task := c.Start(context.Background(), Request{
		Key: "b1",
		Steps: []change.BuildStep{
			{Name: "compile", Kind: change.StepCompile},
			{Name: "unit", Kind: change.StepUnitTest},
		},
		Targets: targets("//a:a", "//b:b"),
	})
	res := task.Result()
	if !res.OK {
		t.Fatalf("Run = %+v, want OK", res)
	}
	// 4 step-units, each spanning one clock tick.
	if res.Executed != 2*time.Second {
		t.Errorf("Result.Executed = %v, want 2s", res.Executed)
	}
	units := task.UnitTimes()
	if len(units) != 4 {
		t.Fatalf("UnitTimes = %d entries, want 4", len(units))
	}
	for _, u := range units {
		if u.Duration != 500*time.Millisecond {
			t.Errorf("unit %+v duration = %v, want 500ms", u, u.Duration)
		}
		if u.Target != "//a:a" && u.Target != "//b:b" {
			t.Errorf("unit %+v has unexpected target", u)
		}
		if u.Kind != change.StepCompile && u.Kind != change.StepUnitTest {
			t.Errorf("unit %+v has unexpected kind", u)
		}
	}
	st := c.Stats()
	if st.ExecTime != 2*time.Second || st.UsefulTime != 2*time.Second || st.WastedTime != 0 {
		t.Errorf("Stats exec/useful/wasted = %v/%v/%v, want 2s/2s/0", st.ExecTime, st.UsefulTime, st.WastedTime)
	}
	if st.ExecTimeByKind != (KindTimes{Compile: time.Second, UnitTest: time.Second}) {
		t.Errorf("ExecTimeByKind = %v, want 1s compile + 1s unit", st.ExecTimeByKind)
	}
}

// TestAbortedComputeIsWasted: a cancelled build's executed-so-far time lands
// in WastedTime, and the abort-time Result carries it — the fleet compute the
// abort threw away.
func TestAbortedComputeIsWasted(t *testing.T) {
	started := make(chan struct{})
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	c := NewController(1, runner)
	c.SetClock(fakeClock(time.Minute))
	task := c.Start(context.Background(), Request{
		Key:     "b1",
		Steps:   []change.BuildStep{compileStep},
		Targets: targets("//a:a"),
	})
	<-started
	task.Cancel()
	res := task.Result()
	if !errors.Is(res.Err, ErrAborted) {
		t.Fatalf("Err = %v, want ErrAborted", res.Err)
	}
	if res.Executed != time.Minute {
		t.Errorf("Result.Executed = %v, want 1m (one interrupted unit)", res.Executed)
	}
	st := c.Stats()
	if st.WastedTime != time.Minute || st.UsefulTime != 0 {
		t.Errorf("Stats wasted/useful = %v/%v, want 1m/0", st.WastedTime, st.UsefulTime)
	}
}

// TestExecutedReadableMidFlight: Task.Executed reports accumulated compute
// while the build is still running — the planner reads it when publishing an
// abort event for an in-flight build.
func TestExecutedReadableMidFlight(t *testing.T) {
	firstDone := make(chan struct{})
	block := make(chan struct{})
	var calls atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		if calls.Add(1) == 2 {
			close(firstDone)
			select {
			case <-block:
			case <-ctx.Done():
			}
		}
		return nil
	})
	c := NewController(1, runner)
	c.SetClock(fakeClock(time.Second))
	task := c.Start(context.Background(), Request{
		Key:     "b1",
		Steps:   []change.BuildStep{compileStep},
		Targets: targets("//a:a", "//b:b"),
	})
	<-firstDone // first unit recorded, second in flight
	if got := task.Executed(); got != time.Second {
		t.Errorf("mid-flight Executed = %v, want 1s (one finished unit)", got)
	}
	close(block)
	if res := task.Result(); res.Executed != 2*time.Second {
		t.Errorf("final Executed = %v, want 2s", res.Executed)
	}
}

// TestStatsGauges: the compute gauges render the accounting counters, the
// durations in seconds and the per-kind split one gauge per step kind.
func TestStatsGauges(t *testing.T) {
	s := Stats{
		Builds: 3, Completed: 2, Aborted: 1, CacheMisses: 5,
		ExecTime:       10 * time.Second,
		ExecTimeByKind: KindTimes{UnitTest: 4 * time.Second, Compile: 6 * time.Second},
		UsefulTime:     6 * time.Second,
		WastedTime:     4 * time.Second,
	}
	g := metrics.Render(s)
	want := map[string]float64{
		"buildsys_builds": 3, "buildsys_completed": 2, "buildsys_aborted": 1, "buildsys_cache_misses": 5,
		"buildsys_exec_time_s": 10, "buildsys_useful_time_s": 6, "buildsys_wasted_time_s": 4,
		"buildsys_exec_time_by_kind_compile_s": 6, "buildsys_exec_time_by_kind_unit_test_s": 4,
	}
	got := map[string]float64{}
	for _, kv := range g {
		got[kv.Name] = kv.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("gauge %s = %v, want %v", name, got[name], v)
		}
	}
}

// TestStatsGaugeNamesPinned pins every gauge name the controller's Stats
// renders, in order: the per-kind split is a struct, so every kind renders
// whether or not it has run, under the name the per-kind map gave it.
func TestStatsGaugeNamesPinned(t *testing.T) {
	want := []string{
		"buildsys_builds", "buildsys_completed", "buildsys_aborted", "buildsys_executed",
		"buildsys_skipped_prior", "buildsys_skipped_cache", "buildsys_cache_misses",
		"buildsys_exec_time_s",
		"buildsys_exec_time_by_kind_compile_s", "buildsys_exec_time_by_kind_unit_test_s",
		"buildsys_exec_time_by_kind_integration_test_s", "buildsys_exec_time_by_kind_ui_test_s",
		"buildsys_exec_time_by_kind_artifact_s",
		"buildsys_useful_time_s", "buildsys_wasted_time_s",
	}
	var got []string
	for _, g := range metrics.Render(NewController(1, nil).Stats()) {
		got = append(got, g.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gauge names:\n got %v\nwant %v", got, want)
	}
	// Each name is the one the step kind's printed form gives.
	for k := change.StepCompile; k <= change.StepArtifact; k++ {
		name := "buildsys_exec_time_by_kind_" + strings.ReplaceAll(k.String(), "-", "_") + "_s"
		if !slices.Contains(want, name) {
			t.Errorf("step kind %v has no gauge %s", k, name)
		}
	}
}

// TestStatsAllocFree: reading a quiet controller's counters allocates
// nothing, however many step kinds have run.
func TestStatsAllocFree(t *testing.T) {
	c := NewController(2, nil)
	steps := []change.BuildStep{compileStep, {Name: "unit", Kind: change.StepUnitTest}, {Name: "ui", Kind: change.StepUITest}}
	if res := c.Run(context.Background(), Request{Key: "b", Steps: steps, Targets: targets("//a:a")}); !res.OK {
		t.Fatalf("build failed: %+v", res)
	}
	var st Stats
	if allocs := testing.AllocsPerRun(100, func() { st = c.Stats() }); allocs != 0 {
		t.Fatalf("Stats allocates %v times per call, want 0", allocs)
	}
	if st.Completed != 1 || st.Executed != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWakePokedAfterDone: a build's end pokes Request.Wake once its result
// is visible, and a full wake channel never blocks the controller.
func TestWakePokedAfterDone(t *testing.T) {
	c := NewController(2, nil)
	wake := make(chan struct{}, 1)
	task := c.Start(context.Background(), Request{Key: "b", Steps: []change.BuildStep{compileStep}, Wake: wake})
	<-wake
	select {
	case <-task.Done():
	default:
		t.Fatal("woken before the result was visible")
	}
	// The channel is full now: the next build's poke coalesces into it.
	wake <- struct{}{}
	if res := c.Run(context.Background(), Request{Key: "b2", Steps: []change.BuildStep{compileStep}, Wake: wake}); !res.OK {
		t.Fatalf("build failed: %+v", res)
	}
}

// TestWakeOnDoneArmsLate: a build armed while it runs pokes the new channel
// when it ends; one armed after it ended pokes at once.
func TestWakeOnDoneArmsLate(t *testing.T) {
	block := make(chan struct{})
	runner := RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
		<-block
		return nil
	})
	c := NewController(1, runner)
	task := c.Start(context.Background(), Request{Key: "b", Steps: []change.BuildStep{compileStep}})
	wake := make(chan struct{}, 1)
	task.WakeOnDone(wake)
	select {
	case <-wake:
		t.Fatal("woken before the build ended")
	default:
	}
	close(block)
	<-wake
	<-task.Done()

	late := make(chan struct{}, 1)
	task.WakeOnDone(late)
	select {
	case <-late:
	default:
		t.Fatal("arming an ended build did not wake at once")
	}
}
