package speculation

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/predict"
	"mastergreen/internal/repo"
)

// mkChanges builds n trivial pending changes c1..cn.
func mkChanges(n int) []*change.Change {
	out := make([]*change.Change, n)
	for i := range out {
		out[i] = &change.Change{
			ID: change.ID(fmt.Sprintf("c%d", i+1)),
			Patch: repo.Patch{Changes: []repo.FileChange{
				{Path: fmt.Sprintf("f%d", i+1), Op: repo.OpCreate, NewContent: "x"},
			}},
			BuildSteps: change.DefaultBuildSteps(),
		}
	}
	return out
}

// tablePredictor returns fixed per-change success and per-pair conflict
// probabilities.
type tablePredictor struct {
	succ map[change.ID]float64
	conf map[string]float64
}

func (t tablePredictor) PredictSuccess(c *change.Change) float64 { return t.succ[c.ID] }
func (t tablePredictor) PredictConflict(a, b *change.Change) float64 {
	k := string(a.ID) + "|" + string(b.ID)
	if a.ID > b.ID {
		k = string(b.ID) + "|" + string(a.ID)
	}
	return t.conf[k]
}

func findBuild(p Plan, key string) (Build, bool) {
	for _, b := range p.Builds {
		if b.Key() == key {
			return b, true
		}
	}
	return Build{}, false
}

func TestEmptyPlan(t *testing.T) {
	e := New(predict.Static{Success: 0.5, Conflict: 0.5})
	p := e.Plan(Request{})
	if len(p.Builds) != 0 || len(p.PCommitIdx) != 0 {
		t.Fatalf("nonempty plan: %+v", p)
	}
}

func TestSingleChange(t *testing.T) {
	e := New(predict.Static{Success: 0.7, Conflict: 0.5})
	p := e.Plan(Request{Pending: mkChanges(1)})
	if len(p.Builds) != 1 {
		t.Fatalf("builds = %d", len(p.Builds))
	}
	b := p.Builds[0]
	if b.Subject != "c1" || len(b.Assumed) != 0 || b.PNeeded != 1 {
		t.Fatalf("root build = %+v", b)
	}
	if b.Key() != "c1" {
		t.Fatalf("key = %q", b.Key())
	}
}

// TestEquations1to5 verifies the exact chain math of §4.2 for three fully
// conflicting changes.
func TestEquations1to5(t *testing.T) {
	p1, p2, p3 := 0.9, 0.8, 0.7
	c12, c13, c23 := 0.1, 0.15, 0.2
	pred := tablePredictor{
		succ: map[change.ID]float64{"c1": p1, "c2": p2, "c3": p3},
		conf: map[string]float64{"c1|c2": c12, "c1|c3": c13, "c2|c3": c23},
	}
	e := New(pred)
	// No conflict graph: everything conflicts (the §4 tree).
	plan := e.Plan(Request{Pending: mkChanges(3)})

	want := map[string]float64{
		"c1": 1,
		// Eq. 2
		"c1+c2": p1,
		"c2!c1": 1 - p1,
		// Eq. 5 and the remaining leaves of Fig. 5
		"c1+c2+c3": p1 * (p2 - c12),
		"c1+c3!c2": p1 * (1 - (p2 - c12)),
		"c2+c3!c1": (1 - p1) * p2,
		"c3!c1,c2": (1 - p1) * (1 - p2),
	}
	if len(plan.Builds) != len(want) {
		for _, b := range plan.Builds {
			t.Logf("build %s p=%.4f", b.Key(), b.PNeeded)
		}
		t.Fatalf("got %d builds, want %d", len(plan.Builds), len(want))
	}
	for key, w := range want {
		b, ok := findBuild(plan, key)
		if !ok {
			t.Errorf("missing build %q", key)
			continue
		}
		if math.Abs(b.PNeeded-w) > 1e-9 {
			t.Errorf("P_needed(%s) = %v, want %v", key, b.PNeeded, w)
		}
	}
	// PCommit(C2) is the unconditional commit probability p2 − c12·p1.
	if got, w := plan.PCommitIdx[1], p2-c12*p1; math.Abs(got-w) > 1e-9 {
		t.Errorf("PCommit(c2) = %v, want %v", got, w)
	}
}

func TestPlanSortedByPNeeded(t *testing.T) {
	e := New(predict.Static{Success: 0.8, Conflict: 0.1})
	plan := e.Plan(Request{Pending: mkChanges(5)})
	for i := 1; i < len(plan.Builds); i++ {
		if plan.Builds[i].PNeeded > plan.Builds[i-1].PNeeded+1e-12 {
			t.Fatalf("not sorted at %d: %v > %v", i,
				plan.Builds[i].PNeeded, plan.Builds[i-1].PNeeded)
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	e := New(predict.Static{Success: 0.5, Conflict: 0.5})
	plan := e.Plan(Request{Pending: mkChanges(8), Budget: 5})
	if len(plan.Builds) != 5 {
		t.Fatalf("builds = %d, want 5", len(plan.Builds))
	}
	// Highest-value builds come first; the root build is always there.
	if plan.Builds[0].PNeeded != 1 {
		t.Fatalf("first build P = %v", plan.Builds[0].PNeeded)
	}
}

// TestFig6IndependentChanges reproduces Fig. 6: C1 ⊥ C2, both conflict with
// C3. C1 and C2 each get exactly one build; C3 speculates over both.
func TestFig6IndependentChanges(t *testing.T) {
	cg := conflict.NewGraph([]change.ID{"c1", "c2", "c3"})
	cg.AddEdge("c1", "c3")
	cg.AddEdge("c2", "c3")
	e := New(predict.Static{Success: 0.8, Conflict: 0.1})
	plan := e.Plan(Request{Pending: mkChanges(3), Conflicts: cg})

	var c1Builds, c2Builds, c3Builds []Build
	for _, b := range plan.Builds {
		switch b.Subject {
		case "c1":
			c1Builds = append(c1Builds, b)
		case "c2":
			c2Builds = append(c2Builds, b)
		case "c3":
			c3Builds = append(c3Builds, b)
		}
	}
	if len(c1Builds) != 1 || len(c1Builds) != 1 {
		t.Fatalf("c1 builds = %d", len(c1Builds))
	}
	if len(c2Builds) != 1 || c2Builds[0].PNeeded != 1 {
		t.Fatalf("c2 should have one always-needed build, got %+v", c2Builds)
	}
	if len(c3Builds) != 4 {
		t.Fatalf("c3 builds = %d, want 4 (Fig. 6)", len(c3Builds))
	}
	keys := map[string]bool{}
	for _, b := range c3Builds {
		keys[b.Key()] = true
	}
	for _, want := range []string{"c3!c1,c2", "c1+c3!c2", "c2+c3!c1", "c1+c2+c3"} {
		if !keys[want] {
			t.Errorf("missing c3 build %q (have %v)", want, keys)
		}
	}
}

// TestFig7 reproduces Fig. 7: C1 conflicts with C2 and C3; C2 ⊥ C3. Total
// builds drop from 7 (full tree) to 5.
func TestFig7(t *testing.T) {
	cg := conflict.NewGraph([]change.ID{"c1", "c2", "c3"})
	cg.AddEdge("c1", "c2")
	cg.AddEdge("c1", "c3")
	e := New(predict.Static{Success: 0.8, Conflict: 0.1})
	plan := e.Plan(Request{Pending: mkChanges(3), Conflicts: cg})
	if len(plan.Builds) != 5 {
		for _, b := range plan.Builds {
			t.Logf("%s p=%.3f", b.Key(), b.PNeeded)
		}
		t.Fatalf("builds = %d, want 5 (Fig. 7)", len(plan.Builds))
	}
	for _, want := range []string{"c1", "c1+c2", "c2!c1", "c1+c3", "c3!c1"} {
		if _, ok := findBuild(plan, want); !ok {
			t.Errorf("missing build %q", want)
		}
	}
}

func TestHighSuccessPrefersDeepSpeculation(t *testing.T) {
	// With P_succ near 1, the most valuable builds are the "all commit"
	// chain, so a budget of n should yield exactly the optimistic path.
	e := New(predict.Static{Success: 0.99, Conflict: 0.01})
	n := 6
	plan := e.Plan(Request{Pending: mkChanges(n), Budget: n})
	if len(plan.Builds) != n {
		t.Fatalf("builds = %d", len(plan.Builds))
	}
	for i, b := range plan.Builds {
		if len(b.Changes) != i+1 {
			t.Fatalf("build %d = %s, want chain prefix of length %d", i, b.Key(), i+1)
		}
	}
}

func TestLowSuccessPrefersIsolatedBuilds(t *testing.T) {
	// With P_succ near 0, each change's most valuable build assumes all
	// predecessors fail: singleton builds.
	e := New(predict.Static{Success: 0.05, Conflict: 0.01})
	n := 5
	plan := e.Plan(Request{Pending: mkChanges(n), Budget: n})
	for _, b := range plan.Builds {
		if len(b.Changes) != 1 {
			t.Fatalf("expected singleton builds, got %s", b.Key())
		}
	}
}

func TestMaxSpecDepthCapsBranching(t *testing.T) {
	n := 20
	e := &Engine{Predictor: predict.Static{Success: 0.9, Conflict: 0.05}, MaxSpecDepth: 3}
	plan := e.Plan(Request{Pending: mkChanges(n), Budget: 0})
	// The last change has 19 conflicting predecessors but only 3 branchable:
	// at most 2^3 = 8 distinct builds for it.
	count := 0
	for _, b := range plan.Builds {
		if b.Subject == change.ID(fmt.Sprintf("c%d", n)) {
			count++
		}
	}
	if count > 8 {
		t.Fatalf("subject c%d has %d builds, want <= 8", n, count)
	}
	// Fixed predecessors still appear in the build's assumption sets.
	for _, b := range plan.Builds {
		if b.Subject == change.ID(fmt.Sprintf("c%d", n)) {
			if len(b.Assumed)+len(b.AssumedRejected) != n-1 {
				t.Fatalf("assumptions incomplete: %s (%d+%d)", b.Key(), len(b.Assumed), len(b.AssumedRejected))
			}
		}
	}
}

func TestOraclePlan(t *testing.T) {
	// Oracle: c2 fails, others succeed, no conflicts. The plan's top builds
	// should include c1's build, c3's build assuming c1 commits and c2
	// rejected — i.e. exactly the "needed" builds rank first.
	oracle := predict.Oracle{
		Success:  func(id change.ID) bool { return id != "c2" },
		Conflict: func(a, b change.ID) bool { return false },
	}
	// All-conflicting tree (nil graph) with oracle probabilities.
	e := New(oracle)
	plan := e.Plan(Request{Pending: mkChanges(3), Budget: 3})
	wantTop := map[string]bool{"c1": true, "c1+c2": true, "c1+c3!c2": true}
	for _, b := range plan.Builds {
		if !wantTop[b.Key()] {
			t.Fatalf("unexpected top-3 build %s (P=%v)", b.Key(), b.PNeeded)
		}
	}
}

func TestBuildKeyDisambiguatesAssumptions(t *testing.T) {
	b1 := Build{Subject: "c3", Changes: []change.ID{"c3"}, AssumedRejected: []change.ID{"c1", "c2"}}
	b2 := Build{Subject: "c3", Changes: []change.ID{"c3"}, AssumedRejected: []change.ID{"c1"}}
	if b1.Key() == b2.Key() {
		t.Fatal("keys must differ for different rejection assumptions")
	}
}

func TestPCommitMonotoneInConflictLoad(t *testing.T) {
	// More conflicting predecessors => lower commit probability for the last
	// change.
	pred := predict.Static{Success: 0.9, Conflict: 0.2}
	var last []float64
	for n := 1; n <= 5; n++ {
		e := New(pred)
		plan := e.Plan(Request{Pending: mkChanges(n)})
		last = append(last, plan.PCommitIdx[n-1])
	}
	for i := 1; i < len(last); i++ {
		if last[i] >= last[i-1] {
			t.Fatalf("PCommit not decreasing: %v", last)
		}
	}
}

func TestDeterministicPlan(t *testing.T) {
	e := New(predict.Static{Success: 0.7, Conflict: 0.2})
	// The second plan overwrites the first, so keep the first one's keys.
	var keys []string
	for _, b := range e.Plan(Request{Pending: mkChanges(6), Budget: 10}).Builds {
		keys = append(keys, b.Key())
	}
	p2 := e.Plan(Request{Pending: mkChanges(6), Budget: 10})
	if len(keys) != len(p2.Builds) {
		t.Fatal("nondeterministic build count")
	}
	for i, k := range keys {
		if k != p2.Builds[i].Key() {
			t.Fatalf("nondeterministic order at %d: %s vs %s", i, k, p2.Builds[i].Key())
		}
	}
}

func TestNoDuplicateBuilds(t *testing.T) {
	// Conflict 0 keeps every leaf's probability positive (2^-depth), so the
	// full tree is enumerated: sum(2^i, i=0..6) = 127 leaves.
	e := New(predict.Static{Success: 0.5, Conflict: 0})
	plan := e.Plan(Request{Pending: mkChanges(7), Budget: 0})
	seen := map[string]bool{}
	for _, b := range plan.Builds {
		k := b.Key()
		if seen[k] {
			t.Fatalf("duplicate build %s", k)
		}
		seen[k] = true
	}
	if len(plan.Builds) != 127 {
		t.Fatalf("builds = %d, want 127", len(plan.Builds))
	}
}

func TestZeroValueBuildsPruned(t *testing.T) {
	// With P_conf = 1 between consecutive changes, deep chains have zero
	// probability and must not be emitted.
	e := New(predict.Static{Success: 0.5, Conflict: 1})
	plan := e.Plan(Request{Pending: mkChanges(4), Budget: 0})
	for _, b := range plan.Builds {
		if b.PNeeded <= 0 {
			t.Fatalf("zero-value build emitted: %s", b.Key())
		}
	}
}

func TestAssumedSetsOrdered(t *testing.T) {
	e := New(predict.Static{Success: 0.6, Conflict: 0.3})
	plan := e.Plan(Request{Pending: mkChanges(5), Budget: 0})
	for _, b := range plan.Builds {
		if !sort.SliceIsSorted(b.Changes, func(i, j int) bool {
			return b.Changes[i] < b.Changes[j] // c1<c2<... lexicographic == submission here
		}) {
			t.Fatalf("unsorted changes in %s", b.Key())
		}
		if b.Changes[len(b.Changes)-1] != b.Subject {
			t.Fatalf("subject not last in %s", b.Key())
		}
	}
}

// TestBenefitWeightedSelection: §4.2.1's value function V = B·P_needed —
// a high-benefit change (e.g. a security patch) outranks likelier builds.
func TestBenefitWeightedSelection(t *testing.T) {
	pending := mkChanges(4)
	pending[3].Benefit = 50 // the security patch, submitted last
	e := New(predict.Static{Success: 0.9, Conflict: 0.1})
	plan := e.Plan(Request{Pending: pending, Budget: 3})
	// Without weighting, c4's builds (3 assumptions deep) would rank behind
	// the c1/c2 chain; with B=50 its most likely build must be in the top 3.
	found := false
	for _, b := range plan.Builds {
		if b.Subject == "c4" {
			found = true
			if b.Value <= b.PNeeded {
				t.Fatalf("value not boosted: %v vs %v", b.Value, b.PNeeded)
			}
		}
	}
	if !found {
		t.Fatal("high-benefit change not prioritized")
	}
	// Plan remains value-sorted.
	for i := 1; i < len(plan.Builds); i++ {
		if plan.Builds[i].Value > plan.Builds[i-1].Value+1e-12 {
			t.Fatalf("not value-sorted at %d", i)
		}
	}
}

// TestDefaultBenefitKeepsProbabilityOrder: with no Benefit set, Value equals
// PNeeded and prior behavior is unchanged.
func TestDefaultBenefitKeepsProbabilityOrder(t *testing.T) {
	e := New(predict.Static{Success: 0.8, Conflict: 0.1})
	plan := e.Plan(Request{Pending: mkChanges(4), Budget: 0})
	for _, b := range plan.Builds {
		if math.Abs(b.Value-b.PNeeded) > 1e-12 {
			t.Fatalf("value %v != pneeded %v without benefits", b.Value, b.PNeeded)
		}
	}
}

// TestSkipThresholdPrunesRejectBranch: with a confident predictor and a
// threshold at or below its confidence, deep reject-branch hedge builds are
// never planned — but the one-step hedge (B_2 in §4.2) is protected, so a
// single surprise rejection still finds a warm build.
func TestSkipThresholdPrunesRejectBranch(t *testing.T) {
	e := New(predict.Static{Success: 0.95, Conflict: 0.2})
	e.SkipThreshold = 0.9
	p := e.Plan(Request{Pending: mkChanges(3)})
	if _, ok := findBuild(p, "c1"); !ok {
		t.Fatalf("plan lost the root build: %+v", p.Builds)
	}
	b, ok := findBuild(p, "c1+c2")
	if !ok {
		t.Fatalf("plan lost the commit-branch build: %+v", p.Builds)
	}
	// q = P_succ(c1) = 0.95.
	if math.Abs(b.PNeeded-0.95) > 1e-12 {
		t.Errorf("commit-branch PNeeded = %v, want 0.95 (honest q)", b.PNeeded)
	}
	// The one-step hedge survives: skipping never drops a build with fewer
	// than two assumptions.
	if _, ok := findBuild(p, "c2!c1"); !ok {
		t.Errorf("one-step hedge build missing despite protection: %+v", p.Builds)
	}
	// c3's reject-of-c1 subtree: c2's in-context commit probability there is
	// a confident 0.95 ≥ τ (no conflict mass from a change that never
	// lands), so the branch skip collapses the reject-reject corner
	// "c3!c1,c2"; the surviving commit child "c2+c3!c1" then carries
	// P_needed 0.05·0.95 ≤ 1−τ and the floor drops it too. The whole
	// low-probability subtree costs zero builds.
	if _, ok := findBuild(p, "c2+c3!c1"); ok {
		t.Errorf("low-P_needed build planned despite floor: %+v", p.Builds)
	}
	if _, ok := findBuild(p, "c3!c1,c2"); ok {
		t.Errorf("deep reject-branch hedge build was planned despite skip: %+v", p.Builds)
	}
	if p.BranchesSkipped != 1 {
		t.Errorf("BranchesSkipped = %d, want 1", p.BranchesSkipped)
	}
	if p.BuildsSkipped != 1 {
		t.Errorf("BuildsSkipped = %d, want 1", p.BuildsSkipped)
	}
}

// TestSkipThresholdNotMet: a threshold above the predictor's in-context
// confidence leaves the plan untouched.
func TestSkipThresholdNotMet(t *testing.T) {
	e := New(predict.Static{Success: 0.95, Conflict: 0.2})
	e.SkipThreshold = 0.96
	p := e.Plan(Request{Pending: mkChanges(2)})
	if _, ok := findBuild(p, "c2!c1"); !ok {
		t.Errorf("reject-branch build missing below threshold: %+v", p.Builds)
	}
	if p.BranchesSkipped != 0 {
		t.Errorf("BranchesSkipped = %d, want 0", p.BranchesSkipped)
	}
}

// TestSkipDisabledByDefault: a zero threshold disables skipping entirely —
// the plan is identical to the unconfigured engine's.
func TestSkipDisabledByDefault(t *testing.T) {
	base := New(predict.Static{Success: 0.99, Conflict: 0.1}).Plan(Request{Pending: mkChanges(3)})
	e := New(predict.Static{Success: 0.99, Conflict: 0.1})
	e.SkipThreshold = 0
	p := e.Plan(Request{Pending: mkChanges(3)})
	if len(p.Builds) != len(base.Builds) || p.BranchesSkipped != 0 {
		t.Fatalf("zero threshold changed the plan: %d builds (want %d), skipped %d",
			len(p.Builds), len(base.Builds), p.BranchesSkipped)
	}
	for i := range base.Builds {
		if p.Builds[i].Key() != base.Builds[i].Key() {
			t.Errorf("build %d: key %q, want %q", i, p.Builds[i].Key(), base.Builds[i].Key())
		}
	}
}

// TestSkipShrinksDeepPlan: on a conflict chain whose predictor stays
// confident at every depth, skipping collapses the exponential hedge
// frontier to the chain-prefix path plus the single protected one-step
// hedge — no build carries two or more rejected assumptions.
func TestSkipShrinksDeepPlan(t *testing.T) {
	pending := mkChanges(6)
	base := New(predict.Static{Success: 0.97, Conflict: 0.005}).Plan(Request{Pending: pending, Budget: 64})
	e := New(predict.Static{Success: 0.97, Conflict: 0.005})
	e.SkipThreshold = 0.9
	p := e.Plan(Request{Pending: pending, Budget: 64})
	// One chain-prefix build per subject plus c2's protected one-step hedge;
	// every deeper hedge is collapsed by the branch skip or dropped by the
	// P_needed floor.
	if len(p.Builds) != len(pending)+1 {
		t.Errorf("skip plan has %d builds, want %d (chain prefixes + one protected hedge)",
			len(p.Builds), len(pending)+1)
	}
	if len(p.Builds) >= len(base.Builds) {
		t.Errorf("skip plan has %d builds, base %d — want strictly fewer", len(p.Builds), len(base.Builds))
	}
	if p.BranchesSkipped == 0 {
		t.Error("BranchesSkipped = 0, want > 0")
	}
	if p.BuildsSkipped == 0 {
		t.Error("BuildsSkipped = 0, want > 0 (floor drops the deviation subtrees)")
	}
	for _, b := range p.Builds {
		if len(b.AssumedRejected) > 1 {
			t.Errorf("build %q carries %d rejected assumptions despite confident skip",
				b.Key(), len(b.AssumedRejected))
		}
	}
}
