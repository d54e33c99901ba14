package reliability

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
)

func noSleep(context.Context, time.Duration) error { return nil }

// hashRunnerFunc adapts a function to both runner interfaces.
type hashRunnerFunc func(ctx context.Context, step change.BuildStep, target, hash string) error

func (f hashRunnerFunc) RunStep(ctx context.Context, step change.BuildStep, target string, _ repo.Snapshot) error {
	return f(ctx, step, target, "")
}

func (f hashRunnerFunc) RunStepHash(ctx context.Context, step change.BuildStep, target, hash string, _ repo.Snapshot) error {
	return f(ctx, step, target, hash)
}

func unitStep(kind change.StepKind, name string) change.BuildStep {
	return change.BuildStep{Name: name, Kind: kind}
}

// driveInjector executes a fixed unit matrix through the injector and
// returns its canonical schedule.
func driveInjector(t *testing.T, seed int64, shuffle bool) []Injection {
	t.Helper()
	in := NewInjector(nil, rand.New(rand.NewSource(seed)), InjectorConfig{
		DefaultTransientRate: 0.3,
		CrashRate:            0.05,
		StuckRate:            0.05,
		SlowRate:             0.1,
		Sleep:                noSleep,
	})
	type call struct {
		step   change.BuildStep
		target string
		hash   string
	}
	var calls []call
	for i := 0; i < 20; i++ {
		for _, k := range []change.StepKind{change.StepCompile, change.StepUnitTest} {
			calls = append(calls, call{
				step:   unitStep(k, k.String()),
				target: fmt.Sprintf("//t%02d", i),
				hash:   fmt.Sprintf("h%02d", i),
			})
		}
	}
	if shuffle {
		// Deterministic shuffle unrelated to the injector seed: exercises
		// order independence.
		sh := rand.New(rand.NewSource(999))
		sh.Shuffle(len(calls), func(a, b int) { calls[a], calls[b] = calls[b], calls[a] })
	}
	for _, c := range calls {
		// Each unit runs three attempts so retry draws are covered too.
		for a := 0; a < 3; a++ {
			_ = in.RunStepHash(context.Background(), c.step, c.target, c.hash, repo.Snapshot{})
		}
	}
	return in.Schedule()
}

// TestInjectorGoldenSchedule: the fault schedule is a pure function of the
// seed and the unit identities — identical across runs and across execution
// orders, different across seeds.
func TestInjectorGoldenSchedule(t *testing.T) {
	a := driveInjector(t, 42, false)
	b := driveInjector(t, 42, false)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\nvs\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no faults injected at 30% transient rate over 120 executions")
	}
	shuffled := driveInjector(t, 42, true)
	if !reflect.DeepEqual(a, shuffled) {
		t.Fatalf("execution order changed the schedule:\n%v\nvs\n%v", a, shuffled)
	}
	other := driveInjector(t, 43, false)
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestInjectorAttemptIndependence: consecutive attempts of the same unit
// must draw independently — a transient on attempt 1 must not force a
// transient on attempt 2 (regression test for the FNV tail-byte bias).
func TestInjectorAttemptIndependence(t *testing.T) {
	in := NewInjector(nil, rand.New(rand.NewSource(7)), InjectorConfig{
		DefaultTransientRate: 0.2, Sleep: noSleep,
	})
	step := unitStep(change.StepUnitTest, "unit")
	firstFails, bothFail := 0, 0
	for i := 0; i < 2000; i++ {
		target := fmt.Sprintf("//t%d", i)
		err1 := in.RunStepHash(context.Background(), step, target, "h", repo.Snapshot{})
		err2 := in.RunStepHash(context.Background(), step, target, "h", repo.Snapshot{})
		if err1 != nil {
			firstFails++
			if err2 != nil {
				bothFail++
			}
		}
	}
	if firstFails < 300 || firstFails > 500 {
		t.Fatalf("first-attempt failures = %d over 2000 at rate 0.2, want ≈400", firstFails)
	}
	// Independent draws: P(fail2 | fail1) ≈ 0.2, so ≈20%% of firstFails.
	if bothFail > firstFails/2 {
		t.Errorf("attempt 2 failed %d of %d times attempt 1 failed — draws are correlated", bothFail, firstFails)
	}
	if bothFail == 0 {
		t.Error("attempt 2 never failed after attempt 1 — draws are anti-correlated")
	}
}

// TestInjectorFaultClasses drives each fault class through a rate-1 config.
func TestInjectorFaultClasses(t *testing.T) {
	ctx := context.Background()
	step := unitStep(change.StepCompile, "compile")

	crash := NewInjector(nil, nil, InjectorConfig{CrashRate: 1, Sleep: noSleep})
	if err := crash.RunStepHash(ctx, step, "//a", "h", repo.Snapshot{}); !errors.Is(err, buildsys.ErrAborted) {
		t.Errorf("crash fault: got %v, want ErrAborted", err)
	}

	stuck := NewInjector(nil, nil, InjectorConfig{StuckRate: 1, StuckDelay: time.Millisecond, Sleep: noSleep})
	if err := stuck.RunStepHash(ctx, step, "//a", "h", repo.Snapshot{}); !errors.Is(err, ErrInjectedTransient) {
		t.Errorf("stuck fault: got %v, want wrapped ErrInjectedTransient", err)
	}

	var slept time.Duration
	slow := NewInjector(nil, nil, InjectorConfig{
		SlowRate: 1, SlowDelay: 5 * time.Millisecond,
		Sleep: func(_ context.Context, d time.Duration) error { slept += d; return nil },
	})
	if err := slow.RunStepHash(ctx, step, "//a", "h", repo.Snapshot{}); err != nil {
		t.Errorf("slow fault must still succeed: %v", err)
	}
	if slept != 5*time.Millisecond {
		t.Errorf("slow fault slept %v, want 5ms", slept)
	}

	tr := NewInjector(nil, nil, InjectorConfig{DefaultTransientRate: 1, MaxTransientsPerUnit: 1, Sleep: noSleep})
	if err := tr.RunStepHash(ctx, step, "//a", "h", repo.Snapshot{}); !errors.Is(err, ErrInjectedTransient) {
		t.Errorf("transient fault: got %v, want ErrInjectedTransient", err)
	}
	// MaxTransientsPerUnit=1: the second attempt on identical inputs passes —
	// the canonical flaky step.
	if err := tr.RunStepHash(ctx, step, "//a", "h", repo.Snapshot{}); err != nil {
		t.Errorf("capped transient must pass on retry: %v", err)
	}
	st := tr.Stats()
	if st.Transients != 1 || st.Total() != 1 {
		t.Errorf("stats = %+v, want exactly 1 transient", st)
	}
}

// TestRetryAbsorbsTransient: a unit that fails once on identical inputs and
// then passes is retried in place, the build step succeeds, and the
// detector confirms the flake.
func TestRetryAbsorbsTransient(t *testing.T) {
	bus := events.NewBus(64)
	r := New(Config{Events: bus})
	calls := 0
	runner := r.Wrap(hashRunnerFunc(func(_ context.Context, _ change.BuildStep, _, _ string) error {
		calls++
		if calls == 1 {
			return errors.New("transient")
		}
		return nil
	}))
	err := runner.(buildsys.StepHashRunner).RunStepHash(
		context.Background(), unitStep(change.StepUnitTest, "unit"), "//a", "h1", repo.Snapshot{})
	if err != nil {
		t.Fatalf("retry did not absorb the transient: %v", err)
	}
	if calls != 2 {
		t.Fatalf("inner ran %d times, want 2", calls)
	}
	st := r.Stats()
	if st.Retries != 1 || st.FlakesConfirmed != 1 || st.FlakyUnits != 1 {
		t.Errorf("stats = %+v, want 1 retry, 1 confirmed flake, 1 flaky unit", st)
	}
	found := false
	for _, ev := range bus.Since(0) {
		if ev.Type == events.TypeFlakyDetected {
			found = true
		}
	}
	if !found {
		t.Error("no flaky-detected event published")
	}
}

// TestGenuineShortCircuit: two consecutive failures on identical inputs
// confirm the failure genuine, so a later build of the same unit gets no
// in-place retry even though it has attempts and budget left.
func TestGenuineShortCircuit(t *testing.T) {
	r := New(Config{})
	calls := 0
	runner := r.Wrap(hashRunnerFunc(func(_ context.Context, _ change.BuildStep, _, _ string) error {
		calls++
		return errors.New("really broken")
	})).(buildsys.StepHashRunner)
	step := unitStep(change.StepCompile, "compile")
	if err := runner.RunStepHash(context.Background(), step, "//a", "h1", repo.Snapshot{}); err == nil {
		t.Fatal("genuine failure must still fail")
	}
	if calls != maxAttempts {
		t.Fatalf("first build ran inner %d times, want %d (one retry)", calls, maxAttempts)
	}
	if err := runner.RunStepHash(context.Background(), step, "//a", "h1", repo.Snapshot{}); err == nil {
		t.Fatal("genuine failure must still fail")
	}
	if calls != maxAttempts+1 {
		t.Fatalf("second build ran inner %d times, want 1 (genuine cutoff)", calls-maxAttempts)
	}
	st := r.Stats()
	if st.GenuineFailures != 1 || st.GenuineShortCircuits != 1 {
		t.Errorf("stats = %+v, want 1 genuine failure + 1 short circuit", st)
	}
}

// TestRetryBudget: the per-epoch budget bounds retries, and BeginEpoch
// refills it.
func TestRetryBudget(t *testing.T) {
	r := New(Config{})
	fail := hashRunnerFunc(func(_ context.Context, _ change.BuildStep, _, _ string) error {
		return errors.New("flaky")
	})
	runner := r.Wrap(fail).(buildsys.StepHashRunner)
	step := unitStep(change.StepUnitTest, "unit")
	// Each distinct failing unit spends one token; the next one is denied.
	for i := 0; i <= epochRetryBudget; i++ {
		_ = runner.RunStepHash(context.Background(), step, fmt.Sprintf("//u%d", i), "h", repo.Snapshot{})
	}
	st := r.Stats()
	if st.Retries != epochRetryBudget || st.RetryBudgetDenied != 1 {
		t.Errorf("stats = %+v, want %d retries and 1 budget denial", st, epochRetryBudget)
	}
	r.BeginEpoch()
	_ = runner.RunStepHash(context.Background(), step, "//fresh", "h", repo.Snapshot{})
	if st = r.Stats(); st.Retries != epochRetryBudget+1 {
		t.Errorf("after BeginEpoch refill, retries = %d, want %d", st.Retries, epochRetryBudget+1)
	}
}

// TestAbortsUnrecorded: cancelled work says nothing about the step, so
// aborts neither retry nor pollute the detector.
func TestAbortsUnrecorded(t *testing.T) {
	r := New(Config{})
	calls := 0
	runner := r.Wrap(hashRunnerFunc(func(_ context.Context, _ change.BuildStep, _, _ string) error {
		calls++
		return buildsys.ErrAborted
	})).(buildsys.StepHashRunner)
	err := runner.RunStepHash(context.Background(), unitStep(change.StepCompile, "compile"), "//a", "h", repo.Snapshot{})
	if !errors.Is(err, buildsys.ErrAborted) {
		t.Fatalf("got %v, want ErrAborted", err)
	}
	if calls != 1 {
		t.Errorf("aborted step ran %d times, want 1 (no retry)", calls)
	}
	if st := r.Stats(); st.UnitsRecorded != 0 {
		t.Errorf("aborted step recorded %d units, want 0", st.UnitsRecorded)
	}
}

// TestWrapPassThrough: nil stays nil (buildsys fast path).
func TestWrapPassThrough(t *testing.T) {
	if r := New(Config{}); r.Wrap(nil) != nil {
		t.Error("Wrap(nil) must stay nil")
	}
}

// TestQuarantineByRate: a kind whose confirmed flake rate crosses the
// threshold is quarantined automatically; one below it is not.
func TestQuarantineByRate(t *testing.T) {
	r := New(Config{QuarantineMinSamples: 4})
	// One flake over 12 units (rate 0.083) stays under the 0.1 threshold.
	below := change.StepIntegrationTest
	for i := 0; i < 10; i++ {
		r.record(unitKey{Target: fmt.Sprintf("//p%d", i), Hash: "h", Kind: below}, true)
	}
	r.record(unitKey{Target: "//f", Hash: "h", Kind: below}, false)
	r.record(unitKey{Target: "//f", Hash: "h", Kind: below}, true)
	if r.Quarantined(below) {
		t.Fatalf("kind quarantined at flake rate 1/12 under threshold %.1f", quarantineThreshold)
	}
	step := unitStep(change.StepUITest, "ui")
	// Drive fail→pass cycles on distinct identities: each confirms a flake.
	for i := 0; i < 3; i++ {
		key := unitKey{Target: fmt.Sprintf("//t%d", i), Hash: "h", Kind: step.Kind}
		r.record(key, false)
		r.record(key, true)
	}
	if !r.Quarantined(step.Kind) {
		t.Fatalf("kind not quarantined at flake rate 3/6 with threshold %.1f: %+v", quarantineThreshold, r.Stats())
	}
	if st := r.Stats(); st.QuarantinedKinds != 1 {
		t.Errorf("QuarantinedKinds = %d, want 1", st.QuarantinedKinds)
	}
}

// TestShouldVerifyBuild covers the grant/deny matrix.
func TestShouldVerifyBuild(t *testing.T) {
	steps := []change.BuildStep{
		unitStep(change.StepCompile, "compile"),
		unitStep(change.StepUnitTest, "unit"),
	}
	req := buildsys.Request{Steps: steps, Targets: map[string]string{"//a": "h1"}}
	failedRes := buildsys.Result{FailedStep: "unit", FailedTarget: "//a", Err: errors.New("boom")}

	t.Run("ok build", func(t *testing.T) {
		r := New(Config{})
		if r.ShouldVerifyBuild(req, buildsys.Result{OK: true}) {
			t.Error("verified an OK build")
		}
	})
	t.Run("aborted build", func(t *testing.T) {
		r := New(Config{})
		if r.ShouldVerifyBuild(req, buildsys.Result{Err: buildsys.ErrAborted, FailedStep: "unit"}) {
			t.Error("verified an aborted build")
		}
	})
	t.Run("no suspicion", func(t *testing.T) {
		r := New(Config{})
		if r.ShouldVerifyBuild(req, failedRes) {
			t.Error("granted verification with no flake evidence")
		}
	})
	t.Run("flaky identity", func(t *testing.T) {
		r := New(Config{})
		key := unitKey{Target: "//a", Hash: "h1", Kind: change.StepUnitTest}
		r.record(key, false)
		r.record(key, true) // flake proven
		if !r.ShouldVerifyBuild(req, failedRes) {
			t.Error("denied verification for a known-flaky identity")
		}
		if st := r.Stats(); st.Verifications != 1 {
			t.Errorf("Verifications = %d, want 1", st.Verifications)
		}
	})
	t.Run("kind-level suspicion", func(t *testing.T) {
		r := New(Config{})
		other := unitKey{Target: "//z", Hash: "hz", Kind: change.StepUnitTest}
		r.record(other, false)
		r.record(other, true) // a different unit of the same kind flaked
		if !r.ShouldVerifyBuild(req, failedRes) {
			t.Error("denied verification despite kind-level flake evidence")
		}
	})
	t.Run("strongly genuine", func(t *testing.T) {
		r := New(Config{})
		// Kind has flake evidence, but this identity failed 4 times straight.
		other := unitKey{Target: "//z", Hash: "hz", Kind: change.StepUnitTest}
		r.record(other, false)
		r.record(other, true)
		key := unitKey{Target: "//a", Hash: "h1", Kind: change.StepUnitTest}
		for i := 0; i < stronglyGenuineCutoff; i++ {
			r.record(key, false)
		}
		if r.ShouldVerifyBuild(req, failedRes) {
			t.Error("granted verification for a strongly genuine failure")
		}
	})
	t.Run("quarantined kind bypasses budget", func(t *testing.T) {
		r := New(Config{})
		other := unitKey{Target: "//z", Hash: "hz", Kind: change.StepUnitTest}
		r.record(other, false)
		r.record(other, true)
		for i := 0; i < epochRetryBudget; i++ {
			if !r.ShouldVerifyBuild(req, failedRes) {
				t.Fatalf("verification %d denied inside the budget", i+1)
			}
		}
		if r.ShouldVerifyBuild(req, failedRes) {
			t.Fatal("verification granted past an exhausted budget")
		}
		r.Quarantine(change.StepUnitTest)
		if !r.ShouldVerifyBuild(req, failedRes) {
			t.Error("quarantined kind denied verification")
		}
		if st := r.Stats(); st.QuarantineVerifications != 1 {
			t.Errorf("QuarantineVerifications = %d, want 1", st.QuarantineVerifications)
		}
	})
	t.Run("unattributed failure", func(t *testing.T) {
		r := New(Config{})
		r.record(unitKey{Target: "//z", Hash: "hz", Kind: change.StepUnitTest}, false)
		r.record(unitKey{Target: "//z", Hash: "hz", Kind: change.StepUnitTest}, true)
		res := failedRes
		res.FailedTarget = ""
		if r.ShouldVerifyBuild(req, res) {
			t.Error("granted verification without a failed-target attribution")
		}
	})
}

// TestConcurrentStress exercises concurrent retries, detector updates, and
// stat readers under -race.
func TestConcurrentStress(t *testing.T) {
	inj := NewInjector(nil, rand.New(rand.NewSource(11)), InjectorConfig{
		DefaultTransientRate: 0.3,
		MaxTransientsPerUnit: 1,
		CrashRate:            0.02,
		Sleep:                noSleep,
	})
	r := New(Config{})
	r.SetInjector(inj)
	runner := r.Wrap(inj).(buildsys.StepHashRunner)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			step := unitStep(change.StepUnitTest, "unit")
			for i := 0; i < 200; i++ {
				target := fmt.Sprintf("//t%d", (g*200+i)%97)
				hash := fmt.Sprintf("h%d", i%13)
				_ = runner.RunStepHash(context.Background(), step, target, hash, repo.Snapshot{})
			}
		}(g)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		req := buildsys.Request{
			Steps:   []change.BuildStep{unitStep(change.StepUnitTest, "unit")},
			Targets: map[string]string{"//t1": "h1"},
		}
		res := buildsys.Result{FailedStep: "unit", FailedTarget: "//t1", Err: errors.New("x")}
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Stats()
			_ = inj.Schedule()
			_ = r.ShouldVerifyBuild(req, res)
			r.BeginEpoch()
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	st := r.Stats()
	if st.UnitsRecorded == 0 {
		t.Error("stress run recorded no units")
	}
	if st.InjectedTransients == 0 {
		t.Error("stress run injected no transients")
	}
}
