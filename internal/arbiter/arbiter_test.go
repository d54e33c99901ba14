package arbiter

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/planner"
	"mastergreen/internal/repo"
)

func testRepo() *repo.Repo {
	return repo.New(map[string]string{
		"a/BUILD": "target a srcs=a.go",
		"a/a.go":  "a v1",
		"b/BUILD": "target b srcs=b.go",
		"b/b.go":  "b v1",
		"c/BUILD": "target c srcs=c.go",
		"c/c.go":  "c v1",
	})
}

func proposal(r *repo.Repo, shard int, id, path, content string, baseLen int, targets []string) planner.CommitProposal {
	c := &change.Change{
		ID:          change.ID(id),
		Author:      change.Developer{Name: "dev", Team: "t", Level: 3},
		Description: "test " + id,
		Patch: repo.Patch{Changes: []repo.FileChange{
			{Path: path, Op: repo.OpCreate, NewContent: content},
		}},
		BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
	}
	return planner.CommitProposal{
		Shard:   shard,
		Change:  c,
		BaseLen: baseLen,
		Applied: []change.ID{c.ID},
		Targets: targets,
		Paths:   []string{path},
		Now:     time.Unix(1700000000, 0),
	}
}

// TestCommitAndFootprintChecks covers the serialized happy path, the
// disjoint-footprint fast path, and target/path intersection rejections.
// The nil-analyzer conservative (structure-unknown) rule means any foreign
// interleaving rejects here; footprint intersection is exercised separately
// with a stub analyzer in the shard integration tests, so this test focuses
// on base bookkeeping.
func TestCommitAndFootprintChecks(t *testing.T) {
	r := testRepo()
	a := New(r, Config{})
	base := r.Len()

	// First commit at the current base: no interleavings, no checks.
	if _, err := a.Commit(proposal(r, 0, "c1", "a/x.go", "x", base, []string{"a"})); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Commits != 1 || st.CrossShardChecks != 0 {
		t.Fatalf("stats after first commit: %+v", st)
	}
	if !a.Committed("c1") {
		t.Fatal("c1 not recorded as committed")
	}

	// A proposal whose base predates c1 and does not apply c1: with no
	// analyzer, structure is unknown, so it must bounce conservatively with
	// ErrCrossShardConflict.
	_, err := a.Commit(proposal(r, 1, "c2", "b/y.go", "y", base, []string{"b"}))
	if !errors.Is(err, planner.ErrCrossShardConflict) {
		t.Fatalf("expected cross-shard bounce, got %v", err)
	}
	if st := a.Stats(); st.CrossShardRejects != 1 || st.CrossShardChecks != 1 {
		t.Fatalf("stats after bounce: %+v", st)
	}
	if r.Len() != base+1 {
		t.Fatalf("mainline advanced on a bounced proposal: len=%d", r.Len())
	}

	// Rebased to the current head, the same change lands.
	if _, err := a.Commit(proposal(r, 1, "c2", "b/y.go", "y", r.Len(), []string{"b"})); err != nil {
		t.Fatal(err)
	}

	// A proposal that *applied* the interleaved commits needs no checks.
	p := proposal(r, 0, "c3", "c/z.go", "z", base, []string{"c"})
	p.Applied = []change.ID{"c1", "c2", "c3"}
	if _, err := a.Commit(p); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Commits != 3 || st.CommitsByShard[0] != 2 || st.CommitsByShard[1] != 1 {
		t.Fatalf("per-shard attribution: %+v", st)
	}
}

// TestAlreadyCommittedBounces verifies the double-commit guard: a change the
// arbiter already landed is bounced, never applied twice.
func TestAlreadyCommittedBounces(t *testing.T) {
	r := testRepo()
	a := New(r, Config{})
	p := proposal(r, 0, "c1", "a/x.go", "x", r.Len(), []string{"a"})
	if _, err := a.Commit(p); err != nil {
		t.Fatal(err)
	}
	lenAfter := r.Len()
	p2 := proposal(r, 1, "c1", "a/x.go", "x", r.Len(), []string{"a"})
	_, err := a.Commit(p2)
	if !errors.Is(err, planner.ErrCrossShardConflict) {
		t.Fatalf("expected bounce for already-committed change, got %v", err)
	}
	if r.Len() != lenAfter {
		t.Fatal("double commit advanced the mainline")
	}
}

// TestMergeFailureLeavesMainlineUntouched: a proposal whose patch no longer
// applies surfaces the repo error (not a cross-shard bounce) and counts as a
// commit failure.
func TestMergeFailureLeavesMainlineUntouched(t *testing.T) {
	r := testRepo()
	a := New(r, Config{})
	if _, err := a.Commit(proposal(r, 0, "c1", "a/x.go", "x", r.Len(), []string{"a"})); err != nil {
		t.Fatal(err)
	}
	// Duplicate create of the same path at the current base: merge conflict.
	p := proposal(r, 1, "c2", "a/x.go", "other", r.Len(), []string{"a"})
	_, err := a.Commit(p)
	if err == nil || errors.Is(err, planner.ErrCrossShardConflict) {
		t.Fatalf("expected merge failure, got %v", err)
	}
	if st := a.Stats(); st.CommitFailures != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHistoryEviction: a proposal whose base predates the retained footprint
// window bounces conservatively instead of consulting evicted records.
func TestHistoryEviction(t *testing.T) {
	r := testRepo()
	a := New(r, Config{})
	a.history = 1
	base := r.Len()
	if _, err := a.Commit(proposal(r, 0, "c1", "a/x.go", "x", base, []string{"a"})); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(proposal(r, 0, "c2", "b/y.go", "y", r.Len(), []string{"b"})); err != nil {
		t.Fatal(err)
	}
	// c1's record is evicted (history 1). A proposal based before c1 bounces.
	_, err := a.Commit(proposal(r, 1, "c3", "c/z.go", "z", base, []string{"c"}))
	if !errors.Is(err, planner.ErrCrossShardConflict) {
		t.Fatalf("expected bounce on evicted history, got %v", err)
	}
}

// TestSubscribeNudges: head advancement nudges subscribers without blocking.
func TestSubscribeNudges(t *testing.T) {
	r := testRepo()
	a := New(r, Config{})
	ch := a.Subscribe()
	if _, err := a.Commit(proposal(r, 0, "c1", "a/x.go", "x", r.Len(), []string{"a"})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("no nudge after commit")
	}
	// Two commits with no reader in between coalesce into one pending token.
	if _, err := a.Commit(proposal(r, 0, "c2", "b/y.go", "y", r.Len(), []string{"b"})); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(proposal(r, 0, "c3", "c/z.go", "z", r.Len(), []string{"c"})); err != nil {
		t.Fatal(err)
	}
	<-ch
	select {
	case <-ch:
		t.Fatal("nudges not coalesced")
	default:
	}
}

// TestRetainedWindowIsARing commits three times history proposals and checks
// that retaining their footprints costs the same per commit at the end as at
// the start (the window does not copy itself), and that the window's edge is
// where it always was: a proposal based exactly history commits back is
// re-validated against the real records — every one of them, in the right
// slot — and one commit further back is bounced unseen.
func TestRetainedWindowIsARing(t *testing.T) {
	const history = 128
	r := benchRepo()
	a := New(r, Config{})
	a.history = history
	var ids []change.ID
	prev := "lib v1"
	third := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < history; i++ {
			p := benchProposal(0, len(ids), r.Len())
			next := fmt.Sprintf("v%d", len(ids))
			p.Change.Patch.Changes[0] = repo.FileChange{ // one fixed file: the tree stays the same size
				Path: "sub00/lib.go", Op: repo.OpModify, BaseHash: repo.HashContent(prev), NewContent: next,
			}
			if _, err := a.Commit(p); err != nil {
				t.Fatal(err)
			}
			prev = next
			ids = append(ids, p.Change.ID)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := third()
	third()
	last := third()
	if float64(last) > 1.25*float64(first) {
		t.Errorf("the last %d commits allocated %d bytes, the first %d only %d: the cost of a commit grows with the history",
			history, last, history, first)
	}

	head := r.Len()
	oldest := ids[len(ids)-history]
	_, err := a.Commit(benchProposal(1, 1_000_000, head-history))
	if !errors.Is(err, planner.ErrCrossShardConflict) || !strings.Contains(err.Error(), "vs committed "+string(oldest)+" ") {
		t.Fatalf("a base exactly history commits back must be re-validated against the oldest retained record %s, got: %v", oldest, err)
	}
	_, err = a.Commit(benchProposal(1, 1_000_001, head-history-1))
	if !errors.Is(err, planner.ErrCrossShardConflict) || !strings.Contains(err.Error(), "base predates retained history") {
		t.Fatalf("a base one commit past the window must be bounced as predating it, got: %v", err)
	}
	// A build that merged every retained commit passes each record as its own.
	p := benchProposal(1, 1_000_002, head-history)
	p.Applied = append(append([]change.ID(nil), ids[len(ids)-history:]...), p.Change.ID)
	if _, err := a.Commit(p); err != nil {
		t.Fatalf("a proposal that applied all %d retained commits must land: %v", history, err)
	}
	if st := a.Stats(); st.Commits != 3*history+1 || st.CrossShardRejects != 2 || st.CrossShardChecks != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
