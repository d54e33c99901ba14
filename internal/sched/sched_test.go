package sched

import (
	"math"
	"testing"
	"time"

	"mastergreen/internal/change"
)

var epoch = time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)

func TestWeightCompatibilityInvariant(t *testing.T) {
	p := Default()
	// The invariant the identical-committed-sets criterion rests on: a
	// default-lane change weighs exactly 1, not approximately 1.
	if w := p.Weight(change.ClassNormal, time.Time{}, epoch); w != 1 {
		t.Fatalf("ClassNormal no-deadline weight = %v, want exactly 1", w)
	}
}

func TestHotfixDominates(t *testing.T) {
	p := Default()
	p0 := p.Weight(change.ClassHotfix, time.Time{}, epoch)
	// The strongest non-hotfix weight is a fully-ramped deadline.
	rampedNormal := p.Weight(change.ClassNormal, epoch.Add(-time.Hour), epoch)
	rampedBulk := p.Weight(change.ClassBulk, epoch.Add(-time.Hour), epoch)
	if p0 <= rampedNormal || p0 <= rampedBulk {
		t.Fatalf("hotfix weight %v must dominate ramped normal %v and ramped bulk %v",
			p0, rampedNormal, rampedBulk)
	}
}

func TestUrgencyRamp(t *testing.T) {
	p := Default()
	deadline := epoch.Add(p.UrgencyHorizon)
	prev := 0.0
	for i := 0; i <= 8; i++ {
		now := epoch.Add(time.Duration(i) * p.UrgencyHorizon / 4) // runs past the deadline
		u := p.Urgency(deadline, now)
		if u < prev {
			t.Fatalf("urgency not monotone: %v then %v at step %d", prev, u, i)
		}
		prev = u
	}
	if u := p.Urgency(deadline, epoch); u != 1 {
		t.Fatalf("urgency at full horizon slack = %v, want 1", u)
	}
	if u := p.Urgency(deadline, deadline.Add(time.Hour)); u != p.UrgencyMax {
		t.Fatalf("urgency past deadline = %v, want UrgencyMax %v (must not collapse)", u, p.UrgencyMax)
	}
}

// TestReachesAtInvertsTheRamp: the closed-form instant a weight reaches w is
// where Weight reads w, for every class on the ramp; past the ramp's top, or
// without a deadline, there is no such instant.
func TestReachesAtInvertsTheRamp(t *testing.T) {
	p := Default()
	deadline := epoch.Add(p.UrgencyHorizon)
	for _, c := range []change.Class{change.ClassBulk, change.ClassNormal, change.ClassHotfix} {
		cw := p.ClassWeight(c)
		for _, w := range []float64{cw, cw * 1.05, cw * 4.5, cw * p.UrgencyMax} {
			at := p.ReachesAt(c, deadline, w)
			if got := p.Weight(c, deadline, at); math.Abs(got-w) > 1e-9*w {
				t.Errorf("class %v: Weight at ReachesAt(%v) = %v", c, w, got)
			}
		}
		if at := p.ReachesAt(c, deadline, cw*p.UrgencyMax+0.01); !at.IsZero() {
			t.Errorf("class %v: weight above the ramp's top reached at %v", c, at)
		}
		if at := p.ReachesAt(c, time.Time{}, cw*1.05); !at.IsZero() {
			t.Errorf("class %v: no deadline, yet reached at %v", c, at)
		}
	}
}

func TestBulkYieldsButAges(t *testing.T) {
	p := Default()
	fresh := p.Weight(change.ClassBulk, time.Time{}, epoch)
	if fresh >= 1 {
		t.Fatalf("fresh bulk weight %v should be < 1 (yields to normal work)", fresh)
	}
	ramped := p.Weight(change.ClassBulk, epoch, epoch) // zero slack
	if ramped <= 1 {
		t.Fatalf("deadline-ramped bulk weight %v should exceed fresh normal work", ramped)
	}
}

func TestWeightsUniformWindowReturnsNil(t *testing.T) {
	p := Default()
	pending := []*change.Change{{ID: "a"}, {ID: "b"}, {ID: "c"}}
	w, ns := p.Weights(pending, epoch)
	if w != nil || ns != nil {
		t.Fatalf("uniform window must return (nil, nil), got (%v, %v)", w, ns)
	}
	pending[1].Class = change.ClassHotfix
	w, ns = p.Weights(pending, epoch)
	if len(w) != 3 || len(ns) != 3 {
		t.Fatalf("mixed window: want parallel arrays of len 3, got (%v, %v)", w, ns)
	}
	if w[0] != 1 || !ns[1] || ns[0] || w[1] != p.HotfixWeight {
		t.Fatalf("mixed window weights wrong: w=%v noskip=%v", w, ns)
	}
}

func seqCandidates(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestBatcherGrowsUnderLowRisk(t *testing.T) {
	b := DefaultBatcher()
	groups := b.Plan(seqCandidates(32),
		func(int) float64 { return 0.99 },
		func(int, int) float64 { return 0.001 })
	total := 0
	for _, g := range groups {
		total += len(g)
		if len(g) > b.MaxBatch {
			t.Fatalf("group %v exceeds MaxBatch %d", g, b.MaxBatch)
		}
	}
	if total != 32 {
		t.Fatalf("groups cover %d of 32 candidates", total)
	}
	if mean := float64(total) / float64(len(groups)); mean <= 4 {
		t.Fatalf("low-risk mean batch size %.1f should beat the fixed Batch-4 baseline (groups %v)", mean, groups)
	}
}

func TestBatcherSingletonsUnderConflict(t *testing.T) {
	b := DefaultBatcher()
	groups := b.Plan(seqCandidates(8),
		func(int) float64 { return 0.99 },
		func(int, int) float64 { return 0.5 }) // every pair over MaxPairConf
	for _, g := range groups {
		if len(g) != 1 {
			t.Fatalf("conflict-heavy candidates must build alone, got group %v", g)
		}
	}
}

func TestBatcherIsolatesRiskyChanges(t *testing.T) {
	b := DefaultBatcher()
	groups := b.Plan(seqCandidates(6),
		func(i int) float64 {
			if i == 3 {
				return 0.4 // below MinSucc
			}
			return 0.99
		},
		func(int, int) float64 { return 0 })
	for _, g := range groups {
		for _, id := range g {
			if id == 3 && len(g) != 1 {
				t.Fatalf("risky candidate batched with others: %v", g)
			}
		}
	}
}

func TestBatcherStopsWhenMarginalMemberHurts(t *testing.T) {
	b := Batcher{MaxBatch: 64, MinSucc: 0.5, MaxPairConf: 0.5}
	// Marginal success 0.8: pass probability decays fast enough that the
	// efficiency criterion must stop growth well before MaxBatch.
	groups := b.Plan(seqCandidates(64),
		func(int) float64 { return 0.8 },
		func(int, int) float64 { return 0 })
	for _, g := range groups {
		if len(g) >= 32 {
			t.Fatalf("efficiency criterion failed to bound batch size: %d members", len(g))
		}
	}
	if len(groups) < 2 {
		t.Fatalf("expected multiple groups, got %v", groups)
	}
}

func TestBisect(t *testing.T) {
	var b Batcher
	got := b.Bisect([]int{10, 11, 12, 13}, 2)
	if len(got) != 2 || len(got[0]) != 1 || got[0][0] != 12 {
		t.Fatalf("guilty eviction: got %v", got)
	}
	if len(got[1]) != 3 || got[1][0] != 10 || got[1][2] != 13 {
		t.Fatalf("guilty eviction remainder: got %v", got)
	}
	got = b.Bisect([]int{10, 11, 12, 13}, -1)
	if len(got) != 2 || len(got[0]) != 2 || len(got[1]) != 2 {
		t.Fatalf("unattributed failure must halve: got %v", got)
	}
	got = b.Bisect([]int{10}, -1)
	if len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("single member: got %v", got)
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker()
	h1 := &change.Change{ID: "h1", Class: change.ClassHotfix, SubmittedAt: epoch}
	n1 := &change.Change{ID: "n1", SubmittedAt: epoch}
	tr.NoteSubmit(h1)
	tr.NoteSubmit(n1)
	tr.NoteSubmit(&change.Change{ID: "n2", SubmittedAt: epoch})

	s := tr.Snapshot()
	if got := s.Hotfix.Pending; got != 1 {
		t.Fatalf("hotfix pending = %d, want 1", got)
	}
	if got := s.Normal; got.Pending != 2 || got.Accepted != 2 {
		t.Fatalf("normal lane = %+v, want pending 2 accepted 2", got)
	}

	tr.NoteDecision(h1, true, epoch.Add(30*time.Second))
	tr.NoteDecision(n1, false, epoch.Add(120*time.Second))

	s = tr.Snapshot()
	if h := s.Hotfix; h.Pending != 0 || h.Committed != 1 || h.TurnaroundMeanSec != 30 || h.TurnaroundMaxSec != 30 {
		t.Fatalf("hotfix lane after decision = %+v", h)
	}
	if n := s.Normal; n.Pending != 1 || n.Rejected != 1 || n.TurnaroundMeanSec != 120 {
		t.Fatalf("normal lane after decision = %+v", n)
	}
	if s.Bulk != (ClassStats{}) {
		t.Fatalf("bulk lane = %+v, want empty", s.Bulk)
	}
}
