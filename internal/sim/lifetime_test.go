package sim

import (
	"reflect"
	"testing"
	"time"

	"mastergreen/internal/workload"
)

// scratchStrategy plans like chainStrategy, but the way sim.Strategy allows:
// every assumption list is cut from one buffer that the next Plan call
// poisons and refills. On each call it also checks the engine's side of that
// contract — every running or finished build must still read the assumptions
// it had when first seen.
type scratchStrategy struct {
	t     *testing.T
	arena []int
	// poison is what a call overwrites the whole buffer with before refilling
	// it: a valid change index that is never anybody's assumption, so a build
	// left pointing into the buffer misreads instead of crashing the engine.
	poison int
	specs  []BuildSpec
	calls  int
	// seen is keyed by {subject, start time}: the chain plan has one spec
	// per subject, so that identifies a started build.
	seen    map[[2]int64]startedSpec
	checked int // st.Finished prefix already checked
	maxAge  int // most Plan calls any started build has been watched for
}

type startedSpec struct {
	assumed   []int
	firstCall int
}

func (s *scratchStrategy) Name() string { return "scratch-test" }

func (s *scratchStrategy) check(spec BuildSpec, start time.Duration) {
	key := [2]int64{int64(spec.Subject), int64(start)}
	first, ok := s.seen[key]
	if !ok {
		s.seen[key] = startedSpec{assumed: append([]int(nil), spec.Assumed...), firstCall: s.calls}
		return
	}
	if !reflect.DeepEqual(first.assumed, append([]int(nil), spec.Assumed...)) {
		s.t.Fatalf("Plan call %d: build of %d started at %v reads assumptions %v, started with %v",
			s.calls, spec.Subject, start, spec.Assumed, first.assumed)
	}
	if age := s.calls - first.firstCall; age > s.maxAge {
		s.maxAge = age
	}
}

func (s *scratchStrategy) Plan(st *State) []BuildSpec {
	s.calls++
	for _, rb := range st.Running {
		s.check(rb.Spec, rb.Start)
	}
	for ; s.checked < len(st.Finished); s.checked++ {
		fb := st.Finished[s.checked]
		s.check(fb.Spec, fb.FinishedAt-fb.Cost)
	}
	arena := s.arena[:cap(s.arena)]
	for i := range arena {
		arena[i] = s.poison
	}
	// Start at a different offset each call, so a refill never happens to
	// put the same list back where a started build might still be looking.
	arena, s.specs = arena[:s.calls%5], s.specs[:0]
	for _, i := range st.Pending {
		lo := len(arena)
		arena = append(arena, st.PendingConflictingPredecessors(i)...)
		if len(arena) > cap(s.arena) {
			s.t.Fatal("arena outgrew its buffer: old specs would escape the poison")
		}
		s.specs = append(s.specs, BuildSpec{Subject: i, Assumed: arena[lo:len(arena):len(arena)], Priority: -float64(i)})
	}
	return s.specs
}

// TestStartedSpecSurvivesLaterPlans pins copy-on-start in reconcile: c1's
// ten-hour build on top of c0 is started from the strategy's scratch memory
// and must still assume exactly c0 while 150 independent one-minute changes
// arrive a minute apart — wider than the 30 s plan interval — each triggering
// a Plan call that overwrites that memory.
func TestStartedSpecSurvivesLaterPlans(t *testing.T) {
	w := &workload.Workload{Cfg: workload.Config{Count: 152}}
	add := func(at, dur time.Duration, conflicts map[int]bool) {
		i := len(w.Changes)
		w.Changes = append(w.Changes, &workload.Change{
			Index: i, ID: change6(i), SubmitAt: at, Duration: dur, Succeeds: true,
			PotentialConflicts: conflicts, RealConflicts: map[int]bool{},
		})
	}
	add(0, 10*time.Hour, map[int]bool{1: true})
	add(0, 10*time.Hour, map[int]bool{0: true})
	for k := 1; k <= 150; k++ {
		add(time.Duration(k)*time.Minute, time.Minute, map[int]bool{})
	}
	s := &scratchStrategy{t: t, arena: make([]int, 0, 1024), poison: len(w.Changes) - 1, seen: map[[2]int64]startedSpec{}}
	res := Run(w, s, Config{Workers: 8, UseAnalyzer: true})
	if res.Committed != len(w.Changes) || res.GreenViolations != 0 {
		t.Fatalf("committed %d of %d, %d green violations", res.Committed, len(w.Changes), res.GreenViolations)
	}
	c1 := s.seen[[2]int64{1, 0}]
	if !reflect.DeepEqual(c1.assumed, []int{0}) {
		t.Fatalf("c1's build started with assumptions %v, want [0]", c1.assumed)
	}
	if s.maxAge < 100 {
		t.Fatalf("longest-watched build saw %d further Plan calls, want at least 100", s.maxAge)
	}
}
