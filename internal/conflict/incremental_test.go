package conflict

import (
	"reflect"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
)

// commit lands a patch built by mkChange and returns the new head.
func commit(t *testing.T, r *repo.Repo, path, content string) *repo.Commit {
	t.Helper()
	head := r.Head()
	c, err := r.CommitPatch(head.ID, mkChange(t, r, "land", path, content).Patch, "dev", "m", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRehomeAcrossSharedTargetKeepsDeltaNames(t *testing.T) {
	r := testRepo()
	a := New(r)
	cy := mkChange(t, r, "cy", "y/y.go", "y v2") // delta {y}; y depends on x
	cz := mkChange(t, r, "cz", "z/z.go", "z v2") // delta {z}
	cx := mkChange(t, r, "cx", "x/x.go", "x v2") // edits the file that lands
	for _, c := range []*change.Change{cy, cz, cx} {
		if _, err := a.Analyze(c); err != nil {
			t.Fatal(err)
		}
	}
	// Land an edit to x: the movement's δ = {x, y} shares y with cy, but it
	// moved none of cy's files, so cy survives beside cz. cx edits the moved
	// file: dropped, and its patch no longer applies.
	commit(t, r, "x/x.go", "x v2 landed")
	rehomed, err := a.Analyze(cy)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.ReusedAnalyses != 2 || st.SelectiveInvalidations != 1 {
		t.Fatalf("reused=%d invalidated=%d", st.ReusedAnalyses, st.SelectiveInvalidations)
	}
	if st.CacheHits != 1 || st.AnalyzedChanges != 3 {
		t.Fatalf("survivor was recomputed: stats=%+v", st)
	}
	if rehomed.Head != r.Head().ID {
		t.Fatal("survivor not re-homed to new head")
	}
	// The re-homed delta names what a cold analyzer names at the new head.
	// Its hash for y lags (y also depends on the moved x); nothing reads it.
	fresh, err := New(r).Analyze(cy)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rehomed.Delta.Names(), fresh.Delta.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-homed delta names %v != fresh %v", got, want)
	}
	if _, err := a.Analyze(cx); err == nil || !IsApplyFailure(err) {
		t.Fatalf("the dropped same-file change must fail to apply, got %v", err)
	}
}

func TestStructureChangingHeadMoveInvalidatesAll(t *testing.T) {
	r := testRepo()
	a := New(r)
	cz := mkChange(t, r, "cz", "z/z.go", "z v2")
	if _, err := a.Analyze(cz); err != nil {
		t.Fatal(err)
	}
	// Landing a BUILD edit changes graph structure: nothing may survive,
	// even path-disjoint content analyses.
	commit(t, r, "y/BUILD", "target y srcs=y.go")
	if _, err := a.Analyze(cz); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.ReusedAnalyses != 0 || st.SelectiveInvalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPathOverlapInvalidatesUnownedFiles(t *testing.T) {
	// A pending change creating a file no target owns has an empty delta and
	// changes no structure. If the head movement lands that same file, the
	// patch no longer applies — the path condition must catch it.
	r := testRepo()
	a := New(r)
	cn := mkChange(t, r, "cn", "notes.txt", "mine")
	if _, err := a.Analyze(cn); err != nil {
		t.Fatal(err)
	}
	commit(t, r, "notes.txt", "theirs")
	if _, err := a.Analyze(cn); err == nil {
		t.Fatal("stale create patch must fail after the path landed")
	}
	if st := a.Stats(); st.ReusedAnalyses != 0 || st.SelectiveInvalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnionVerdictMemoFollowsAnalyses(t *testing.T) {
	r := testRepo()
	a := New(r)
	cy := mkChange(t, r, "cy", "y/y.go", "y v2")
	cz := mkChange(t, r, "cz", "z/z.go", "z v2")
	cs := mkChange(t, r, "cs", "z/BUILD", "target z srcs=z.go deps=//y:y") // structure-changing
	conflicts := func(ci, cj *change.Change, want bool) {
		t.Helper()
		if conf, err := a.Conflicts(ci, cj); err != nil || conf != want {
			t.Fatalf("Conflicts(%s,%s) = %v, %v; want %v", ci.ID, cj.ID, conf, err, want)
		}
	}
	// A name intersection is never memoized: asking twice compares twice.
	conflicts(cy, cz, false)
	conflicts(cy, cz, false)
	// A union-graph verdict is: the second ask is a memo hit.
	conflicts(cy, cs, true)
	conflicts(cs, cy, true)
	st := a.Stats()
	if st.CheapComparisons != 2 || st.UnionComparisons != 1 || st.PairCacheHits != 1 {
		t.Fatalf("before the head move: %+v", st)
	}
	// Land an unowned file: empty head delta. cy re-homes with its identity
	// intact; cs changed structure, so it is dropped — its verdicts with it,
	// without a scan — and the pair is compared afresh.
	commit(t, r, "docsfile", "d")
	conflicts(cy, cs, true)
	st = a.Stats()
	if st.UnionComparisons != 2 || st.PairCacheHits != 1 {
		t.Fatalf("verdict of a dropped analysis served from the memo: %+v", st)
	}
	if st.ReusedAnalyses != 2 || st.SelectiveInvalidations != 1 {
		t.Fatalf("reused=%d invalidated=%d", st.ReusedAnalyses, st.SelectiveInvalidations)
	}
	// The fresh verdict is memoized in turn, in the new analysis's row.
	conflicts(cy, cs, true)
	if st = a.Stats(); st.UnionComparisons != 2 || st.PairCacheHits != 2 {
		t.Fatalf("fresh verdict not memoized: %+v", st)
	}
}

func TestBuildGraphIncrementalReuse(t *testing.T) {
	r := testRepo()
	a := New(r)
	c1 := mkChange(t, r, "c1", "x/x.go", "x v2")
	c2 := mkChange(t, r, "c2", "y/y.go", "y v2")
	c3 := mkChange(t, r, "c3", "z/z.go", "z v2")
	pending := []*change.Change{c1, c2, c3}
	g, failed := a.BuildGraph(pending)
	if len(failed) != 0 || !g.Conflict("c1", "c2") || g.Conflict("c1", "c3") {
		t.Fatalf("first build wrong: failed=%v", failed)
	}
	st := a.Stats()
	// The target index yields c1-c2, the one pair sharing a target; the two
	// disjoint pairs are never looked at.
	if st.GraphRebuilds != 1 || st.PairsRescanned != 1 || st.CheapComparisons != 1 {
		t.Fatalf("first build stats = %+v", st)
	}
	// Same pending set, no head move: every pair carries over untouched, and
	// all three analyses are resolved from the cache without a fan-out.
	g2, _ := a.BuildGraph(pending)
	st = a.Stats()
	if st.GraphUpdates != 1 || st.PairsReused != 3 || st.PairsRescanned != 1 || st.CacheHits != 3 {
		t.Fatalf("second build stats = %+v", st)
	}
	if !g2.Conflict("c1", "c2") || g2.Conflict("c2", "c3") {
		t.Fatal("second build edges wrong")
	}
	// Dropping c1 from pending removes its vertex and its cached state.
	g3, _ := a.BuildGraph([]*change.Change{c2, c3})
	if g3.Len() != 2 || g3.Conflict("c2", "c3") {
		t.Fatalf("third build wrong: len=%d", g3.Len())
	}
	// Returned graphs are clones: mutating one must not leak into the memo.
	g3.AddEdge("c2", "c3")
	g4, _ := a.BuildGraph([]*change.Change{c2, c3})
	if g4.Conflict("c2", "c3") {
		t.Fatal("caller mutation leaked into the memoized graph")
	}
}

func TestUpdateGraphConservativeEdgeForStaleAnalysis(t *testing.T) {
	// White-box: a pair whose analysis is still stale after the bounded
	// retry gets a conservative edge; once re-analyzed at the current head
	// the rescan removes it.
	r := testRepo()
	a := New(r)
	c1 := mkChange(t, r, "c1", "y/y.go", "y v2")
	c2 := mkChange(t, r, "c2", "z/z.go", "z v2")
	an1, err := a.Analyze(c1)
	if err != nil {
		t.Fatal(err)
	}
	an2, err := a.Analyze(c2)
	if err != nil {
		t.Fatal(err)
	}
	stale := *an2
	stale.Head = "elsewhere"
	a.mu.Lock()
	g := a.updateGraphLocked([]*Analysis{an1, &stale})
	a.mu.Unlock()
	if !g.Conflict("c1", "c2") {
		t.Fatal("stale pair must get a conservative edge")
	}
	if st := a.Stats(); st.ConservativeEdges != 1 {
		t.Fatalf("stats = %+v", st)
	}
	a.mu.Lock()
	g = a.updateGraphLocked([]*Analysis{an1, an2})
	a.mu.Unlock()
	if g.Conflict("c1", "c2") {
		t.Fatal("rescan at current head must remove the conservative edge")
	}
}

func TestAnalyzerLifecycleEvents(t *testing.T) {
	r := testRepo()
	a := New(r)
	bus := events.NewBus(64)
	a.SetEvents(bus)
	cz := mkChange(t, r, "cz", "z/z.go", "z v2")
	cy := mkChange(t, r, "cy", "y/y.go", "y v2")
	cn := mkChange(t, r, "cn", "notes.txt", "n")
	cx := mkChange(t, r, "cx", "x/x.go", "x mine")
	for _, c := range []*change.Change{cz, cy, cn, cx} {
		if _, err := a.Analyze(c); err != nil {
			t.Fatal(err)
		}
	}
	head := commit(t, r, "x/x.go", "x v2") // drops cx (same file), re-homes cz, cy and cn
	if _, err := a.Analyze(cz); err != nil {
		t.Fatal(err)
	}
	counts := map[events.Type]int{}
	var reused events.Event
	for _, ev := range bus.Since(0) {
		counts[ev.Type]++
		if ev.Type == events.TypeAnalysisReused {
			reused = ev
		}
	}
	if counts[events.TypeAnalysisStarted] != 4 {
		t.Fatalf("started = %d", counts[events.TypeAnalysisStarted])
	}
	// Drops are published per change; the survivors of a head move — at depth,
	// every other pending change — share one summary, so one commit cannot
	// evict the bus's whole history.
	if counts[events.TypeAnalysisReused] != 1 || counts[events.TypeAnalysisInvalidated] != 1 {
		t.Fatalf("events = %v", counts)
	}
	if want := "3 analyses re-homed to head " + string(head.ID); reused.Detail != want || reused.Change != "" {
		t.Fatalf("summary = %+v, want detail %q", reused, want)
	}
}
