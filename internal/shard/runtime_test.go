package shard_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/planner"
	"mastergreen/internal/repo"
)

// multiRepo builds a monorepo with n independent top-level subtrees, one
// build target each. Every target declares slot files f0.go..f11.go that do
// not exist yet: creating one changes the target's hash, so changes within a
// subtree conflict at the target level while different subtrees stay
// independent components.
func multiRepo(n int) *repo.Repo {
	srcs := "lib.go"
	for s := 0; s < 12; s++ {
		srcs += fmt.Sprintf(",f%d.go", s)
	}
	files := map[string]string{}
	for i := 0; i < n; i++ {
		dir := fmt.Sprintf("component%02d", i)
		files[dir+"/BUILD"] = "target comp srcs=" + srcs
		files[dir+"/lib.go"] = "lib v1"
	}
	return repo.New(files)
}

// modChange edits one file relative to the current head.
func modChange(r *repo.Repo, id, path, content string) *change.Change {
	snap := r.Head().Snapshot()
	cur, ok := snap.Read(path)
	fc := repo.FileChange{Path: path, Op: repo.OpCreate, NewContent: content}
	if ok {
		fc = repo.FileChange{Path: path, Op: repo.OpModify, BaseHash: repo.HashContent(cur), NewContent: content}
	}
	return &change.Change{
		ID:          change.ID(id),
		Author:      change.Developer{Name: "dev", Team: "t", Level: 3},
		Description: "test " + id,
		Patch:       repo.Patch{Changes: []repo.FileChange{fc}},
		BuildSteps:  []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
	}
}

func fakeClock() func() time.Time {
	base := time.Unix(1700000000, 0)
	return func() time.Time { return base }
}

// brokenRunner fails any step whose snapshot contains "BROKEN" in a source
// file of the target's subtree.
func brokenRunner() buildsys.StepRunner {
	return buildsys.RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		for _, p := range snap.Paths() {
			if content, ok := snap.Read(p); ok && strings.Contains(content, "BROKEN") {
				return fmt.Errorf("compile error in %s", p)
			}
		}
		return nil
	})
}

func outcomeSets(outs []planner.Outcome) (committed, rejected map[change.ID]bool) {
	committed = map[change.ID]bool{}
	rejected = map[change.ID]bool{}
	for _, o := range outs {
		if o.State == change.StateCommitted {
			committed[o.ID] = true
		} else {
			rejected[o.ID] = true
		}
	}
	return committed, rejected
}

// TestShardedCommitsAll drives a multi-subtree workload through four planner
// shards and checks every change lands with its content at head.
func TestShardedCommitsAll(t *testing.T) {
	r := multiRepo(8)
	s := core.NewService(r, core.Config{Workers: 8, Shards: 4, Now: fakeClock()})
	n := 24
	for i := 0; i < n; i++ {
		// Each change creates a distinct slot file in its subtree:
		// same-subtree changes conflict at the target level (and chain),
		// different subtrees are independent components.
		c := modChange(r, fmt.Sprintf("c%03d", i), fmt.Sprintf("component%02d/f%d.go", i%8, i/8), fmt.Sprintf("content %d", i))
		if err := s.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := s.Outcomes()
	if len(outs) != n {
		t.Fatalf("outcomes = %d, want %d", len(outs), n)
	}
	committed, rejected := outcomeSets(outs)
	if len(rejected) != 0 {
		t.Fatalf("unexpected rejections: %v", rejected)
	}
	if len(committed) != n {
		t.Fatalf("committed = %d, want %d", len(committed), n)
	}
	snap := r.Head().Snapshot()
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("component%02d/f%d.go", i%8, i/8)
		if got, ok := snap.Read(path); !ok || got != fmt.Sprintf("content %d", i) {
			t.Fatalf("head missing %s (got %q, ok=%v)", path, got, ok)
		}
	}
	if got := s.ArbiterStats().Commits; got != n {
		t.Fatalf("arbiter commits = %d, want %d", got, n)
	}
	if ss := s.ShardStats(); ss.Partitions == 0 || ss.Components == 0 {
		t.Fatalf("shard stats not populated: %+v", ss)
	}
}

// TestShardedMatchesSinglePlanner runs the same deterministic workload
// through 4 and 8 shards and requires the committed/rejected sets and the
// head snapshot of the one-engine run (Shards: 1).
func TestShardedMatchesSinglePlanner(t *testing.T) {
	type result struct {
		committed, rejected map[change.ID]bool
		files               map[string]string
	}
	run := func(shards int) result {
		r := multiRepo(6)
		s := core.NewService(r, core.Config{
			Workers: 8, Shards: shards,
			Runner: brokenRunner(), Now: fakeClock(),
		})
		for i := 0; i < 30; i++ {
			content := fmt.Sprintf("content %d", i)
			if i%10 == 7 {
				content = "BROKEN " + content
			}
			path := fmt.Sprintf("component%02d/f%d.go", i%6, i/6)
			if i%15 == 4 {
				// Deliberate duplicate-create collision with an earlier
				// change's file: exactly one of the two lands.
				path = fmt.Sprintf("component%02d/f%d.go", (i-1)%6, (i-1)/6)
			}
			c := modChange(r, fmt.Sprintf("c%03d", i), path, content)
			if err := s.Submit(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.ProcessAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		committed, rejected := outcomeSets(s.Outcomes())
		files := map[string]string{}
		snap := r.Head().Snapshot()
		for _, p := range snap.Paths() {
			content, _ := snap.Read(p)
			files[p] = content
		}
		return result{committed: committed, rejected: rejected, files: files}
	}
	base := run(1)
	for _, shards := range []int{4, 8} {
		got := run(shards)
		if len(got.committed) != len(base.committed) || len(got.rejected) != len(base.rejected) {
			t.Fatalf("shards=%d: %d committed / %d rejected, want %d / %d",
				shards, len(got.committed), len(got.rejected), len(base.committed), len(base.rejected))
		}
		for id := range base.committed {
			if !got.committed[id] {
				t.Fatalf("shards=%d: %s not committed", shards, id)
			}
		}
		for id := range base.rejected {
			if !got.rejected[id] {
				t.Fatalf("shards=%d: %s not rejected", shards, id)
			}
		}
		for p, want := range base.files {
			if got.files[p] != want {
				t.Fatalf("shards=%d: head file %s = %q, want %q", shards, p, got.files[p], want)
			}
		}
		for p, content := range got.files {
			if strings.Contains(content, "BROKEN") {
				t.Fatalf("shards=%d: green violation: %s broken at head", shards, p)
			}
		}
	}
}

// TestShardedSameSubtreeChains checks that conflicting same-component changes
// serialize correctly inside one shard: each builds on the previous commit.
func TestShardedSameSubtreeChains(t *testing.T) {
	r := multiRepo(2)
	s := core.NewService(r, core.Config{Workers: 4, Shards: 4, Now: fakeClock()})
	// All five changes create distinct slot files under one subtree's target
	// dir; they share the comp target, so they form one conflict component.
	for i := 0; i < 5; i++ {
		c := modChange(r, fmt.Sprintf("c%d", i), fmt.Sprintf("component00/f%d.go", i), fmt.Sprintf("v%d", i))
		if err := s.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	committed, rejected := outcomeSets(s.Outcomes())
	if len(committed) != 5 || len(rejected) != 0 {
		t.Fatalf("committed=%d rejected=%d, want 5/0", len(committed), len(rejected))
	}
	if r.Len() != 1+5 {
		t.Fatalf("mainline len = %d, want 6", r.Len())
	}
}
