package reliability

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/clock"
	"mastergreen/internal/repo"
)

// ErrInjectedTransient marks a fault-injected transient step failure. The
// stuck-step watchdog error wraps it, so errors.Is(err, ErrInjectedTransient)
// covers both transient classes.
var ErrInjectedTransient = errors.New("reliability: injected transient fault")

// Fault classifies an injected perturbation.
type Fault int

// Fault kinds, in the order the stacked probability thresholds are drawn.
const (
	FaultNone Fault = iota
	FaultCrash
	FaultStuck
	FaultSlow
	FaultTransient
)

// String names the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultCrash:
		return "crash"
	case FaultStuck:
		return "stuck"
	case FaultSlow:
		return "slow"
	case FaultTransient:
		return "transient"
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// InjectorConfig tunes fault injection. All rates are probabilities in
// [0, 1] applied per step-unit execution; they stack in the order crash,
// stuck, slow, transient (a single uniform draw is consumed left to right).
type InjectorConfig struct {
	// TransientRate is the per-step-kind transient-failure rate;
	// DefaultTransientRate covers kinds absent from the map.
	TransientRate        map[change.StepKind]float64
	DefaultTransientRate float64
	// MaxTransientsPerUnit caps injected transients per step-unit identity
	// (0 = unlimited). With 1, a unit fails exactly once and then passes —
	// the canonical flaky step.
	MaxTransientsPerUnit int
	// SlowRate/SlowDelay: the unit runs normally after an injected delay.
	SlowRate  float64
	SlowDelay time.Duration
	// StuckRate/StuckDelay: the unit hangs for StuckDelay, then the modeled
	// watchdog kills it — it fails with a transient-class error.
	StuckRate  float64
	StuckDelay time.Duration
	// CrashRate models a worker crash: the unit fails with
	// buildsys.ErrAborted, tearing the whole build down (the planner drops
	// aborted builds and reschedules them).
	CrashRate float64
}

// Injection is one recorded fault, keyed by the step-unit identity and the
// per-identity attempt number it hit.
type Injection struct {
	Target  string
	Hash    string
	Step    string
	Kind    change.StepKind
	Attempt int
	Fault   Fault
}

// InjectorStats counts injected faults.
type InjectorStats struct {
	Transients int
	Slows      int
	Stucks     int
	Crashes    int
}

// Total sums all injected faults.
func (s InjectorStats) Total() int { return s.Transients + s.Slows + s.Stucks + s.Crashes }

// Injector wraps a StepRunner with deterministic fault injection. Fault
// decisions are pure functions of (seed, step-unit identity, per-identity
// attempt number): a 64-bit seed is drawn once from the injected *rand.Rand,
// and each execution hashes it with the unit's step name, kind, target,
// target hash, and attempt counter. The schedule is therefore bit-reproducible
// for a given seed and independent of goroutine interleaving — concurrent
// executions of different units cannot perturb each other's draws.
//
// The injector is safe for concurrent use and implements both
// buildsys.StepRunner and buildsys.StepHashRunner.
type Injector struct {
	cfg  InjectorConfig
	seed uint64

	mu         sync.Mutex
	inner      buildsys.StepRunner
	clock      clock.Clock // slow and stuck units wait on it
	attempts   map[unitKey]int
	transients map[unitKey]int
	schedule   []Injection
	stats      InjectorStats
}

// scheduleCap bounds the recorded fault log (golden tests need far less).
const scheduleCap = 65536

// NewInjector wraps inner (nil means every un-perturbed step succeeds) with
// fault injection seeded from rng (nil means seed 1).
func NewInjector(inner buildsys.StepRunner, rng *rand.Rand, cfg InjectorConfig) *Injector {
	seed := uint64(1)
	if rng != nil {
		seed = uint64(rng.Int63())
	}
	return &Injector{
		cfg:        cfg,
		seed:       seed,
		inner:      inner,
		clock:      clock.Wall, //lint:ignore wallclock the default until core.NewService sets the service's clock
		attempts:   map[unitKey]int{},
		transients: map[unitKey]int{},
	}
}

// SetInner replaces the wrapped runner (used by core wiring, before any
// builds run).
func (in *Injector) SetInner(inner buildsys.StepRunner) {
	in.mu.Lock()
	in.inner = inner
	in.mu.Unlock()
}

// SetClock sets the clock slow and stuck units wait on (used by core wiring,
// before any builds run).
func (in *Injector) SetClock(clk clock.Clock) {
	in.mu.Lock()
	in.clock = clk
	in.mu.Unlock()
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() InjectorStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Schedule returns the recorded faults in a canonical order (sorted by
// identity then attempt), so two runs' schedules compare equal regardless of
// the goroutine interleaving that produced them.
func (in *Injector) Schedule() []Injection {
	in.mu.Lock()
	out := append([]Injection(nil), in.schedule...)
	in.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Target != y.Target {
			return x.Target < y.Target
		}
		if x.Hash != y.Hash {
			return x.Hash < y.Hash
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		if x.Step != y.Step {
			return x.Step < y.Step
		}
		return x.Attempt < y.Attempt
	})
	return out
}

// RunStep implements buildsys.StepRunner (no content address available).
func (in *Injector) RunStep(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
	return in.RunStepHash(ctx, step, target, "", snap)
}

// RunStepHash implements buildsys.StepHashRunner.
func (in *Injector) RunStepHash(ctx context.Context, step change.BuildStep, target, hash string, snap repo.Snapshot) error {
	key := unitKey{Target: target, Hash: hash, Kind: step.Kind}
	in.mu.Lock()
	in.attempts[key]++
	attempt := in.attempts[key]
	fault := in.decide(key, step.Name, attempt)
	if fault == FaultTransient && in.cfg.MaxTransientsPerUnit > 0 &&
		in.transients[key] >= in.cfg.MaxTransientsPerUnit {
		fault = FaultNone
	}
	if fault != FaultNone {
		switch fault {
		case FaultTransient:
			in.transients[key]++
			in.stats.Transients++
		case FaultSlow:
			in.stats.Slows++
		case FaultStuck:
			in.stats.Stucks++
		case FaultCrash:
			in.stats.Crashes++
		}
		if len(in.schedule) < scheduleCap {
			in.schedule = append(in.schedule, Injection{
				Target: target, Hash: hash, Step: step.Name, Kind: step.Kind,
				Attempt: attempt, Fault: fault,
			})
		}
	}
	inner, clk := in.inner, in.clock
	in.mu.Unlock()

	switch fault {
	case FaultCrash:
		return buildsys.ErrAborted
	case FaultStuck:
		if err := clock.Sleep(ctx, clk, in.cfg.StuckDelay); err != nil {
			return buildsys.ErrAborted
		}
		return fmt.Errorf("injected stuck step killed by watchdog after %v: %w", in.cfg.StuckDelay, ErrInjectedTransient)
	case FaultTransient:
		return fmt.Errorf("%w (step %s, target %q, attempt %d)", ErrInjectedTransient, step.Name, target, attempt)
	case FaultSlow:
		if err := clock.Sleep(ctx, clk, in.cfg.SlowDelay); err != nil {
			return buildsys.ErrAborted
		}
	}
	if inner == nil {
		return nil
	}
	if hr, ok := inner.(buildsys.StepHashRunner); ok {
		return hr.RunStepHash(ctx, step, target, hash, snap)
	}
	return inner.RunStep(ctx, step, target, snap)
}

// decide maps (identity, attempt) to a fault by hashing it with the seed and
// consuming one uniform draw against the stacked rates.
func (in *Injector) decide(key unitKey, stepName string, attempt int) Fault {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(in.seed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(key.Target))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key.Hash))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key.Kind.String()))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(stepName))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(strconv.Itoa(attempt)))
	u := float64(finalize(h.Sum64())>>11) / float64(1<<53)

	u -= in.cfg.CrashRate
	if u < 0 {
		return FaultCrash
	}
	u -= in.cfg.StuckRate
	if u < 0 {
		return FaultStuck
	}
	u -= in.cfg.SlowRate
	if u < 0 {
		return FaultSlow
	}
	rate, ok := in.cfg.TransientRate[key.Kind]
	if !ok {
		rate = in.cfg.DefaultTransientRate
	}
	u -= rate
	if u < 0 {
		return FaultTransient
	}
	return FaultNone
}

// finalize avalanches an FNV-1a sum (murmur3 fmix64). FNV's final input
// byte shifts the sum by only ~±prime (≈2^40), so without this the top bits
// — the ones the uniform draw keeps — are nearly identical across attempt
// numbers and every retry would re-draw the same fault.
func finalize(s uint64) uint64 {
	s ^= s >> 33
	s *= 0xff51afd7ed558ccd
	s ^= s >> 33
	s *= 0xc4ceb9fe1a85ec53
	s ^= s >> 33
	return s
}
