package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/events"
	"mastergreen/internal/reliability"
	"mastergreen/internal/repo"
)

func relNoSleep(context.Context, time.Duration) error { return nil }

// TestInnocentSurvivesInjectedTransient: with every step-unit failing
// exactly once (the canonical flaky fleet), in-place retries absorb the
// transients so an innocent change still commits, while a change whose
// content genuinely breaks the build is still rejected.
func TestInnocentSurvivesInjectedTransient(t *testing.T) {
	r := newRepo()
	badRunner := buildsys.RunnerFunc(func(_ context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		if got, _ := snap.Read("lib/lib.go"); got == "lib broken" {
			return errors.New("compile error in lib.go")
		}
		return nil
	})
	inj := reliability.NewInjector(nil, rand.New(rand.NewSource(5)), reliability.InjectorConfig{
		DefaultTransientRate: 1, // every unit flakes...
		MaxTransientsPerUnit: 1, // ...exactly once, then passes
		Sleep:                relNoSleep,
	})
	s := NewService(r, Config{
		Workers:       2,
		Runner:        badRunner,
		FaultInjector: inj,
	})

	good := mkChange(r, "good", "doc/readme.md", "doc v2")
	bad := mkChange(r, "bad", "lib/lib.go", "lib broken")
	if err := s.Submit(good); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(bad); err != nil {
		t.Fatal(err)
	}
	if err := s.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	st, err := s.State("good")
	if err != nil || st.State != change.StateCommitted {
		t.Fatalf("innocent change lost to injected transients: %+v, %v", st, err)
	}
	st, err = s.State("bad")
	if err != nil || st.State != change.StateRejected {
		t.Fatalf("genuinely-broken change not rejected: %+v, %v", st, err)
	}

	rs := s.ReliabilityStats()
	if rs.InjectedTransients == 0 {
		t.Error("no transients injected")
	}
	if rs.Retries == 0 {
		t.Error("no in-place retries spent")
	}
	if rs.FlakesConfirmed == 0 {
		t.Error("no flakes confirmed despite fail-then-pass on identical inputs")
	}
}

// TestVerificationAvertsRejection: with every unit flaking twice, enough to
// outlast the in-place retry, and the compile kind quarantined, a decisive
// build that fails on injected transients gets one verification re-run
// against the same snapshot; the re-run passes (the injector's per-unit cap
// is spent), the change commits, and the averted rejection is counted and
// published.
func TestVerificationAvertsRejection(t *testing.T) {
	r := newRepo()
	bus := events.NewBus(256)
	inj := reliability.NewInjector(nil, rand.New(rand.NewSource(9)), reliability.InjectorConfig{
		DefaultTransientRate: 1,
		MaxTransientsPerUnit: 2,
		Sleep:                relNoSleep,
	})
	s := NewService(r, Config{
		Workers:       2,
		Events:        bus,
		FaultInjector: inj,
	})
	s.Reliability().Quarantine(change.StepCompile)

	c := mkChange(r, "c1", "doc/readme.md", "doc v2")
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	if err := s.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	st, err := s.State("c1")
	if err != nil || st.State != change.StateCommitted {
		t.Fatalf("verification did not avert the rejection: %+v, %v", st, err)
	}
	rs := s.ReliabilityStats()
	if rs.Verifications == 0 || rs.QuarantineVerifications == 0 {
		t.Errorf("stats = %+v, want a quarantine-granted verification", rs)
	}
	if rs.RejectionsAverted != 1 {
		t.Errorf("RejectionsAverted = %d, want 1", rs.RejectionsAverted)
	}
	var retried, averted bool
	for _, ev := range bus.Since(0) {
		switch ev.Type {
		case events.TypeBuildRetried:
			retried = true
		case events.TypeRejectionAverted:
			averted = true
		}
	}
	if !retried || !averted {
		t.Errorf("events: build-retried=%v rejection-averted=%v, want both", retried, averted)
	}
}
