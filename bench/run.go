package main

import (
	"errors"
	"fmt"
	"time"
)

// params is one run of one workload.
type params struct {
	workload string
	seed     int64
	// seconds sizes the measured section: every workload turns it into a
	// fixed operation count (its calibrated rate x seconds), so the work a
	// run does is a function of the arguments alone, never of the clock.
	seconds float64
	// tr records spans and per-layer counts; nil on untraced runs.
	tr *tracer
	// commitBroken switches the harness's runner to pass BROKEN changes (the
	// self-test of the oracle: the run must then fail).
	commitBroken bool
}

// count turns a per-second rate into this run's fixed operation count.
func (p params) count(perSecond float64, min int) int {
	n := int(perSecond*p.seconds + 0.5)
	if n < min {
		n = min
	}
	return n
}

// warmUp is the fixed-count warm-up every workload runs inside set-up: a
// fifth of the measured count, 4 s of work at the checked-in 20 s.
func warmUp(measured, min int) int {
	if n := measured / 5; n > min {
		return n
	}
	return min
}

// result is what one run of one workload reports.
type result struct {
	workload string
	seed     int64

	attempted int // operations the harness issued and checked
	failed    int // of those: failed, undecided at the deadline, or oracle violations
	problems  []string

	// hash lets two runs of one seed be compared for equal decisions; kind
	// says over what ("sequence" of committed IDs, their "set", or "free"
	// where real time legitimately decides).
	hash     string
	hashKind string

	e2e   map[string]float64
	layer map[string]float64 // traced runs only
	notes map[string]string
}

func newResult(p params) *result {
	return &result{
		workload: p.workload, seed: p.seed,
		e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]string{},
	}
}

func (r *result) fail(n int, format string, args ...interface{}) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// errAborted marks a run the guards stopped: it is reported as failed, never
// as a slow number.
var errAborted = errors.New("run aborted by guard")

// guard bounds a run: a deadline of three times the expected run time and a
// ceiling on pending changes. A closed loop at saturation with no pending
// bound can collapse metastably (an ever-growing backlog that still makes
// some progress); such a run must fail, not report a throughput.
type guard struct {
	deadline   time.Time
	maxPending int
}

func newGuard(expected time.Duration, maxPending int) guard {
	if expected < 5*time.Second {
		expected = 5 * time.Second
	}
	return guard{deadline: time.Now().Add(3 * expected), maxPending: maxPending}
}

func (g guard) check(pending int) error {
	if pending > g.maxPending {
		return fmt.Errorf("%w: %d pending exceeds the ceiling of %d", errAborted, pending, g.maxPending)
	}
	if time.Now().After(g.deadline) {
		return fmt.Errorf("%w: deadline passed with %d pending", errAborted, pending)
	}
	return nil
}

// workloadFunc runs one workload end to end and checks it with the oracle.
type workloadFunc func(p params) (*result, error)

// workloads lists the four workloads in the order they are run; BENCHMARK.json
// and README.md say why each exists.
var workloads = []struct {
	name string
	run  workloadFunc
}{
	{"serve_mix", runServeMix},
	{"window_deep", runWindowDeep},
	{"build_bound", runBuildBound},
	{"sim_replay", runSimReplay},
}

func findWorkload(name string) workloadFunc {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}
