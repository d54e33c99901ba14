package repo

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"
)

// treeFiles returns a t-file tree spread over 32 directories.
func treeFiles(t int) map[string]string {
	files := make(map[string]string, t)
	for i := 0; i < t; i++ {
		files[fmt.Sprintf("sub%03d/f%d.go", i%32, i/32)] = fmt.Sprintf("content %d", i)
	}
	return files
}

func largeTree(t int) Snapshot { return NewSnapshot(treeFiles(t)) }

// BenchmarkSnapshotApplyLargeTree is the serving path's per-commit cost: one
// single-file patch applied to a 4096-file tree. Apply copies one
// root-to-leaf path of the trie, O(depth); a full-map copy per commit made
// this O(tree) and dominated the sustained-load CPU profile, pushing submit
// P99 from ~3ms to ~300ms at 350 commits/s on one core.
func BenchmarkSnapshotApplyLargeTree(b *testing.B) {
	snap := largeTree(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := snap.Apply(Patch{Changes: []FileChange{{
			Path: fmt.Sprintf("new/b%d.go", i), Op: OpCreate, NewContent: "x",
		}}})
		if err != nil {
			b.Fatal(err)
		}
		snap = next
	}
}

// BenchmarkChangedPathsNearbyHeads diffs two heads a few commits apart — the
// conflict analyzer's selective-invalidation query on every head move. The
// two tries share every subtree the commits did not touch, and the diff
// skips those, so it visits O(commits · depth) nodes, not the tree.
func BenchmarkChangedPathsNearbyHeads(b *testing.B) {
	old := largeTree(4096)
	cur := old
	for i := 0; i < 3; i++ {
		next, err := cur.Apply(Patch{Changes: []FileChange{{
			Path: fmt.Sprintf("new/h%d.go", i), Op: OpCreate, NewContent: "y",
		}}})
		if err != nil {
			b.Fatal(err)
		}
		cur = next
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := cur.ChangedPaths(old); len(got) != 3 {
			b.Fatalf("changed paths = %d, want 3", len(got))
		}
	}
}

// commitEdits commits n single-file modifications onto r, round-robin over
// the files of treeFiles(t).
func commitEdits(tb testing.TB, r *Repo, t, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		head := r.Head()
		path := fmt.Sprintf("sub%03d/f%d.go", i%32, (i/32)%(t/32))
		fc := modify(head.Snapshot(), path, fmt.Sprintf("edit %d", i))
		if _, err := r.CommitPatch(head.ID, Patch{Changes: []FileChange{fc}}, "a", "m", time.Unix(0, 0)); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestHistoryRetainsLittlePerCommit: a commit keeps only the trie path it
// copied, so 5000 commits on a 1088-file tree (~130 KB of trie) retain well
// under a kilobyte and a half of live heap each, commit metadata included.
func TestHistoryRetainsLittlePerCommit(t *testing.T) {
	const tree, commits = 1088, 5000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	r := New(treeFiles(tree))
	before := heap()
	commitEdits(t, r, tree, commits)
	perCommit := float64(heap()-before) / commits
	if perCommit > 1536 {
		t.Fatalf("history retains %.0f B per commit, want at most 1536", perCommit)
	}
	runtime.KeepAlive(r)
}

// BenchmarkRepoSaveHistory saves a 2000-commit history on a 1088-file tree.
// Each commit's patch comes from diffing it against its parent, which skips
// every subtree the two share, so Save costs O(patch) per commit.
func BenchmarkRepoSaveHistory(b *testing.B) {
	r := New(treeFiles(1088))
	commitEdits(b, r, 1088, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
