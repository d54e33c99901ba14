package conflict

import (
	"fmt"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// benchRepo builds a repo of n mutually independent single-target packages
// plus one pending content edit per package.
func benchRepo(n int) (*repo.Repo, []*change.Change) {
	files := make(map[string]string, 2*n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("d%03d/BUILD", i)] = fmt.Sprintf("target t%03d srcs=f.go", i)
		files[fmt.Sprintf("d%03d/f.go", i)] = fmt.Sprintf("v1 of %d", i)
	}
	r := repo.New(files)
	pending := make([]*change.Change, n)
	for i := 0; i < n; i++ {
		pending[i] = &change.Change{
			ID: change.ID(fmt.Sprintf("c%03d", i)),
			Patch: repo.Patch{Changes: []repo.FileChange{{
				Path: fmt.Sprintf("d%03d/f.go", i), Op: repo.OpModify,
				BaseHash:   repo.HashContent(fmt.Sprintf("v1 of %d", i)),
				NewContent: fmt.Sprintf("v2 of %d", i),
			}}},
		}
	}
	return r, pending
}

// runCommitSequence plans the full pending set, then lands the first k
// changes one at a time with a BuildGraph re-plan after each commit —
// the planner's steady-state loop. It returns the number of conflict-level
// graph builds the commit phase consumed.
func runCommitSequence(tb testing.TB, n, k int) (graphBuildsPerCommit float64, st Stats) {
	tb.Helper()
	r, pending := benchRepo(n)
	a := New(r)
	if _, failed := a.BuildGraph(pending); len(failed) != 0 {
		tb.Fatalf("initial BuildGraph failed: %v", failed)
	}
	before := a.Stats().GraphBuilds
	for i := 0; i < k; i++ {
		head := r.Head()
		if _, err := r.CommitPatch(head.ID, pending[0].Patch, "dev", string(pending[0].ID), time.Time{}); err != nil {
			tb.Fatal(err)
		}
		pending = pending[1:]
		if _, failed := a.BuildGraph(pending); len(failed) != 0 {
			tb.Fatalf("BuildGraph after commit %d failed: %v", i, failed)
		}
	}
	st = a.Stats()
	return float64(st.GraphBuilds-before) / float64(k), st
}

// TestSelectiveInvalidationReducesGraphBuilds is the acceptance headline:
// at 64 pending independent changes, committing them one at a time costs at
// most one head-graph build per commit — the head's own — and none for the
// 63 survivors, whose analyses are re-homed and whose pairs are reused.
func TestSelectiveInvalidationReducesGraphBuilds(t *testing.T) {
	const n, k = 64, 16
	perCommit, st := runCommitSequence(t, n, k)
	t.Logf("graph builds per commit: %.1f stats=%+v", perCommit, st)
	if perCommit <= 0 || perCommit > 1.0 {
		t.Fatalf("graph builds per commit = %.1f, want in (0, 1.0]", perCommit)
	}
	if st.ReusedAnalyses == 0 || st.PairsReused == 0 {
		t.Fatalf("incremental pipeline idle: %+v", st)
	}
}

// BenchmarkCommitReplanIncremental measures the steady-state planner loop —
// commit one change, re-plan the remaining 63 — with selective invalidation
// and the incremental graph memo.
func BenchmarkCommitReplanIncremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runCommitSequence(b, 64, 16)
	}
}

// BenchmarkBuildGraphSteadyState measures a re-plan with no head movement
// and no pending churn: all pairs served from the graph memo.
func BenchmarkBuildGraphSteadyState(b *testing.B) {
	r, pending := benchRepo(64)
	a := New(r)
	if _, failed := a.BuildGraph(pending); len(failed) != 0 {
		b.Fatalf("setup failed: %v", failed)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, failed := a.BuildGraph(pending); len(failed) != 0 {
			b.Fatalf("BuildGraph failed: %v", failed)
		}
	}
}

// BenchmarkAnalyzeFanOut measures the parallel single-flight analysis of 64
// fresh changes (a new analyzer, hence an empty cache, each iteration).
func BenchmarkAnalyzeFanOut(b *testing.B) {
	r, pending := benchRepo(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(r)
		if _, failed := a.BuildGraph(pending); len(failed) != 0 {
			b.Fatalf("BuildGraph failed: %v", failed)
		}
	}
}

// BenchmarkBuildGraphIncremental measures one epoch of the deep-window steady
// state at k pending over k/16 subtrees (chain depth 16): the oldest pending
// change lands — a head move that re-analyses only the pending changes
// editing the file it moved — and 8 new changes arrive, then BuildGraph
// reconciles the memoized graph. The same shape as the bench/ probe
// conflict.build_graph_incr_ms.kN; k=4096 extends it past the probe's sizes.
func BenchmarkBuildGraphIncremental(b *testing.B) {
	for _, k := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			const depth, arrivals = 16, 8
			subtrees := k / depth
			r, pending := chainRepo(subtrees, depth)
			a := New(r)
			if _, failed := a.BuildGraph(pending); len(failed) != 0 {
				b.Fatalf("setup failed: %v", failed)
			}
			next := len(pending)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := r.CommitPatch(r.Head().ID, pending[0].Patch, "dev", "land", time.Time{}); err != nil {
					b.Fatal(err)
				}
				pending = pending[1:]
				for n := 0; n < arrivals; n++ {
					pending = append(pending, chainChange(next, next%subtrees, (next/subtrees)%depth))
					next++
				}
				b.StartTimer()
				if _, failed := a.BuildGraph(pending); len(failed) != 0 {
					b.Fatalf("BuildGraph failed: %v", failed)
				}
			}
		})
	}
}
