package conflict

import (
	"strings"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// testRepo builds the Fig. 8-style monorepo: //y:y depends on //x:x, //z:z
// independent.
func testRepo() *repo.Repo {
	return repo.New(map[string]string{
		"x/BUILD": "target x srcs=x.go",
		"x/x.go":  "x v1",
		"y/BUILD": "target y srcs=y.go deps=//x:x",
		"y/y.go":  "y v1",
		"z/BUILD": "target z srcs=z.go",
		"z/z.go":  "z v1",
	})
}

func mkChange(t *testing.T, r *repo.Repo, id, path, content string) *change.Change {
	t.Helper()
	snap := r.Head().Snapshot()
	cur, ok := snap.Read(path)
	fc := repo.FileChange{Path: path, Op: repo.OpCreate, NewContent: content}
	if ok {
		fc = repo.FileChange{Path: path, Op: repo.OpModify, BaseHash: repo.HashContent(cur), NewContent: content}
	}
	return &change.Change{
		ID:         change.ID(id),
		Patch:      repo.Patch{Changes: []repo.FileChange{fc}},
		BuildSteps: change.DefaultBuildSteps(),
		BaseCommit: r.Head().ID,
	}
}

func TestAnalyzeDelta(t *testing.T) {
	r := testRepo()
	a := New(r)
	c := mkChange(t, r, "c1", "x/x.go", "x v2")
	an, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Delta) != 2 {
		t.Fatalf("delta = %v", an.Delta.Names())
	}
	if an.StructureChanged {
		t.Error("content edit should not change structure")
	}
	if an.Graph == nil {
		t.Error("analysis must retain the H⊕C graph for union comparisons")
	}
	// Second call hits the cache.
	if _, err := a.Analyze(c); err != nil {
		t.Fatal(err)
	}
	if a.Stats().CacheHits != 1 {
		t.Fatalf("cache hits = %d", a.Stats().CacheHits)
	}
}

func TestAnalyzeStructureChange(t *testing.T) {
	r := testRepo()
	a := New(r)
	c := mkChange(t, r, "c2", "z/BUILD", "target z srcs=z.go deps=//y:y")
	an, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if !an.StructureChanged || an.Graph == nil {
		t.Fatal("structure change not detected")
	}
	if a.Stats().StructureChanged != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
}

func TestAnalyzeRejectsUnappliablePatch(t *testing.T) {
	r := testRepo()
	a := New(r)
	c := mkChange(t, r, "c1", "x/x.go", "x v2")
	// Land a competing edit so c1's base hash is stale.
	head := r.Head()
	p := mkChange(t, r, "other", "x/x.go", "x landed").Patch
	if _, err := r.CommitPatch(head.ID, p, "dev", "m", time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(c); err == nil || !strings.Contains(err.Error(), "does not apply") {
		t.Fatalf("err = %v", err)
	}
	if a.Stats().PatchApplyFailures != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
}

func TestConflictsCheapPath(t *testing.T) {
	r := testRepo()
	a := New(r)
	// Both touch //y:y's closure: x edit affects y transitively.
	c1 := mkChange(t, r, "c1", "x/x.go", "x v2")
	c2 := mkChange(t, r, "c2", "y/y.go", "y v2")
	conf, err := a.Conflicts(c1, c2)
	if err != nil || !conf {
		t.Fatalf("conf = %v, %v", conf, err)
	}
	// Independent pair.
	c3 := mkChange(t, r, "c3", "z/z.go", "z v2")
	conf, err = a.Conflicts(c1, c3)
	if err != nil || conf {
		t.Fatalf("independent pair conf = %v, %v", conf, err)
	}
	st := a.Stats()
	if st.CheapComparisons != 2 || st.UnionComparisons != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConflictsUnionPath(t *testing.T) {
	// The Fig. 8 trap: deltas are name-disjoint but the dependency edge added
	// by c2 makes them conflict. Requires the union-graph algorithm.
	r := testRepo()
	a := New(r)
	c1 := mkChange(t, r, "c1", "x/x.go", "x v2")
	c2 := mkChange(t, r, "c2", "z/BUILD", "target z srcs=z.go deps=//y:y")
	conf, err := a.Conflicts(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if !conf {
		t.Fatal("Fig. 8 conflict missed")
	}
	if a.Stats().UnionComparisons != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
}

func TestHeadMoveInvalidatesCache(t *testing.T) {
	r := testRepo()
	a := New(r)
	c1 := mkChange(t, r, "c1", "z/z.go", "z v2")
	if _, err := a.Analyze(c1); err != nil {
		t.Fatal(err)
	}
	// Advance head with an unrelated commit.
	head := r.Head()
	p := mkChange(t, r, "land", "docsfile", "d").Patch
	if _, err := r.CommitPatch(head.ID, p, "dev", "m", time.Time{}); err != nil {
		t.Fatal(err)
	}
	an, err := a.Analyze(c1)
	if err != nil {
		t.Fatal(err)
	}
	if an.Head != r.Head().ID {
		t.Fatal("analysis not refreshed after head move")
	}
}

func TestBuildGraph(t *testing.T) {
	r := testRepo()
	a := New(r)
	c1 := mkChange(t, r, "c1", "x/x.go", "x v2") // affects x, y
	c2 := mkChange(t, r, "c2", "y/y.go", "y v2") // affects y
	c3 := mkChange(t, r, "c3", "z/z.go", "z v2") // independent
	g, failed := a.BuildGraph([]*change.Change{c1, c2, c3})
	if len(failed) != 0 {
		t.Fatalf("failed = %v", failed)
	}
	if !g.Conflict("c1", "c2") || g.Conflict("c1", "c3") || g.Conflict("c2", "c3") {
		t.Fatalf("bad edges: c1-c2=%v c1-c3=%v c2-c3=%v",
			g.Conflict("c1", "c2"), g.Conflict("c1", "c3"), g.Conflict("c2", "c3"))
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
}

func TestBuildGraphReportsFailures(t *testing.T) {
	r := testRepo()
	a := New(r)
	c1 := mkChange(t, r, "c1", "x/x.go", "x v2")
	// Land a competing edit to x so c1 no longer applies.
	head := r.Head()
	if _, err := r.CommitPatch(head.ID, mkChange(t, r, "w", "x/x.go", "landed").Patch, "d", "m", time.Time{}); err != nil {
		t.Fatal(err)
	}
	c2 := mkChange(t, r, "c2", "z/z.go", "z v2") // authored against new head
	g, failed := a.BuildGraph([]*change.Change{c1, c2})
	if len(failed) != 1 || failed["c1"] == nil {
		t.Fatalf("failed = %v", failed)
	}
	if g.Len() != 1 {
		t.Fatalf("graph len = %d", g.Len())
	}
}

func TestGraphOperations(t *testing.T) {
	g := NewGraph([]change.ID{"a", "b", "c", "d"})
	g.AddEdge("a", "c")
	g.AddEdge("b", "c")
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.Neighbors("c"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Neighbors = %v", got)
	}
	if got := g.ConflictingPredecessors("c"); len(got) != 2 {
		t.Fatalf("preds = %v", got)
	}
	if got := g.ConflictingPredecessors("a"); len(got) != 0 {
		t.Fatalf("preds of first = %v", got)
	}
	if got := g.ConflictingPredecessors("zz"); got != nil {
		t.Fatalf("preds of unknown = %v", got)
	}
	// Self edge ignored.
	g.AddEdge("a", "a")
	if g.Conflict("a", "a") {
		t.Fatal("self conflict recorded")
	}
	// Duplicate AddChange is idempotent.
	g.AddChange("a")
	if g.Len() != 4 {
		t.Fatal("duplicate AddChange grew graph")
	}
}

func TestGraphRemove(t *testing.T) {
	g := NewGraph([]change.ID{"a", "b", "c"})
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.Remove("b")
	if g.Len() != 2 || g.Conflict("a", "b") || g.Conflict("b", "c") {
		t.Fatalf("remove failed: len=%d", g.Len())
	}
	// Order preserved and reindexed.
	order := g.Order()
	if order[0] != "a" || order[1] != "c" {
		t.Fatalf("order = %v", order)
	}
	if got := g.ConflictingPredecessors("c"); len(got) != 0 {
		t.Fatalf("stale preds = %v", got)
	}
	g.Remove("nope") // no-op, no panic
}

func TestGraphRemoveSeveralAndIsolate(t *testing.T) {
	g := NewGraph([]change.ID{"a", "b", "c", "d", "e"})
	for _, e := range [][2]change.ID{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "e"}, {"d", "e"}} {
		g.AddEdge(e[0], e[1])
	}
	g.Remove("b", "nope", "d")
	if got := g.Order(); len(got) != 3 || got[0] != "a" || got[1] != "c" || got[2] != "e" {
		t.Fatalf("order = %v", got)
	}
	if g.Conflict("c", "d") || g.Conflict("a", "b") || !g.Conflict("a", "e") {
		t.Fatal("edges of removed vertices survived, or a kept edge was lost")
	}
	if got := g.ConflictingPredecessors("e"); len(got) != 1 || got[0] != "a" {
		t.Fatalf("reindex wrong: preds(e) = %v", got)
	}
	g.AddEdge("c", "e")
	g.Isolate("e")
	if !g.Contains("e") || g.Conflict("a", "e") || g.Conflict("e", "c") || len(g.Neighbors("a")) != 0 {
		t.Fatal("Isolate must drop every incident edge and keep the vertex")
	}
}

func TestHasConflictingPredecessor(t *testing.T) {
	g := NewGraph([]change.ID{"a", "b", "c"})
	g.AddEdge("a", "c")
	for id, want := range map[change.ID]bool{"a": false, "b": false, "c": true, "nope": false} {
		if got := g.HasConflictingPredecessor(id); got != want || got != (len(g.ConflictingPredecessors(id)) > 0) {
			t.Errorf("HasConflictingPredecessor(%s) = %v, want %v", id, got, want)
		}
	}
}

func TestComponentsOrdering(t *testing.T) {
	g := NewGraph([]change.ID{"a", "b", "c", "d", "e"})
	g.AddEdge("d", "a") // component {a, d}
	g.AddEdge("c", "e") // component {c, e}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	// First component starts at earliest change, members sorted by order.
	if comps[0][0] != "a" || comps[0][1] != "d" {
		t.Fatalf("comp0 = %v", comps[0])
	}
	if comps[1][0] != "b" {
		t.Fatalf("comp1 = %v", comps[1])
	}
	if comps[2][0] != "c" || comps[2][1] != "e" {
		t.Fatalf("comp2 = %v", comps[2])
	}
}
