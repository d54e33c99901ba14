package arbiter

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/planner"
	"mastergreen/internal/repo"
)

func benchProposal(i int, baseLen int) planner.CommitProposal {
	id := change.ID(fmt.Sprintf("c%07d", i))
	path := fmt.Sprintf("sub%02d/f%d.go", i%16, i)
	c := &change.Change{
		ID: id,
		Patch: repo.Patch{Changes: []repo.FileChange{{
			Path: path, Op: repo.OpCreate, NewContent: fmt.Sprintf("v%d", i),
		}}},
	}
	return planner.CommitProposal{
		Change:  c,
		BaseLen: baseLen,
		Applied: []change.ID{id},
		Targets: []string{fmt.Sprintf("sub%02d", i%16)},
		Paths:   []string{path},
		Now:     time.Unix(1700000000, 0),
	}
}

func benchRepo() *repo.Repo {
	files := map[string]string{}
	for i := 0; i < 16; i++ {
		files[fmt.Sprintf("sub%02d/BUILD", i)] = "target t srcs=lib.go"
		files[fmt.Sprintf("sub%02d/lib.go", i)] = "lib v1"
	}
	return repo.New(files)
}

// BenchmarkCommitCurrentBase measures the serialized happy path: every
// proposal is based on the current head, so no cross-shard checks run. The
// proposals modify one fixed file so the tree (and the per-commit clone)
// stays constant-size across b.N.
func BenchmarkCommitCurrentBase(b *testing.B) {
	r := benchRepo()
	a := New(r, Config{})
	prev := "lib v1"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := fmt.Sprintf("v%d", i)
		id := change.ID(fmt.Sprintf("c%07d", i))
		c := &change.Change{
			ID: id,
			Patch: repo.Patch{Changes: []repo.FileChange{{
				Path: "sub00/lib.go", Op: repo.OpModify,
				BaseHash: repo.HashContent(prev), NewContent: next,
			}}},
		}
		p := planner.CommitProposal{
			Change: c, BaseLen: r.Len(),
			Applied: []change.ID{id},
			Targets: []string{"sub00"}, Paths: []string{"sub00/lib.go"},
			Now: time.Unix(1700000000, 0),
		}
		if _, err := a.Commit(p); err != nil {
			b.Fatal(err)
		}
		prev = next
	}
}

// BenchmarkCommitStaleBounce measures the conservative cross-shard rejection:
// each proposal's base predates a foreign commit it did not apply, so the
// arbiter walks the interleaved window and bounces.
func BenchmarkCommitStaleBounce(b *testing.B) {
	r := benchRepo()
	a := New(r, Config{})
	base := r.Len()
	// One landed foreign commit every stale proposal interleaves with.
	if _, err := a.Commit(benchProposal(1<<20, base)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := a.Commit(benchProposal(i, base))
		if !errors.Is(err, planner.ErrCrossShardConflict) {
			b.Fatalf("expected bounce, got %v", err)
		}
	}
}
