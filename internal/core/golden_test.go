package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/planner"
	"mastergreen/internal/repo"
)

// goldenRepo has four independent subtrees whose targets declare slot files
// that do not exist yet, so creates conflict at the target level within a
// subtree and are independent across subtrees.
func goldenRepo() *repo.Repo {
	srcs := "lib.go"
	for s := 0; s < 8; s++ {
		srcs += fmt.Sprintf(",f%d.go", s)
	}
	files := map[string]string{}
	for i := 0; i < 4; i++ {
		dir := fmt.Sprintf("sub%d", i)
		files[dir+"/BUILD"] = "target t srcs=" + srcs
		files[dir+"/lib.go"] = "lib v1"
	}
	return repo.New(files)
}

// goldenWorkload builds the same deterministic change list for every run:
// chained creates per subtree, one build breakage, one duplicate-create
// merge conflict.
func goldenWorkload() []*change.Change {
	var out []*change.Change
	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("sub%d/f%d.go", i%4, i/4)
		content := fmt.Sprintf("content %d", i)
		switch i {
		case 9:
			content = "BROKEN " + content // decisive build fails
		case 14:
			path = fmt.Sprintf("sub%d/f%d.go", (i-1)%4, (i-1)/4) // duplicate create
		}
		out = append(out, &change.Change{
			ID:          change.ID(fmt.Sprintf("c%03d", i)),
			Author:      change.Developer{Name: "dev", Team: "t", Level: 3},
			Description: fmt.Sprintf("golden %03d", i),
			Patch: repo.Patch{Changes: []repo.FileChange{
				{Path: path, Op: repo.OpCreate, NewContent: content},
			}},
			BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
		})
	}
	return out
}

type goldenTrace struct {
	outcomes []planner.Outcome
	history  []repo.CommitID
	headLen  int
	files    map[string]string
}

func goldenRun(t *testing.T, shards int) goldenTrace {
	t.Helper()
	r := goldenRepo()
	base := time.Unix(1700000000, 0)
	runner := buildsys.RunnerFunc(func(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
		for _, p := range snap.Paths() {
			if content, ok := snap.Read(p); ok && strings.Contains(content, "BROKEN") {
				return fmt.Errorf("compile error in %s", p)
			}
		}
		return nil
	})
	// Workers: 1 pins build-completion order; the synchronous Tick loop keeps
	// both drivers single-threaded, so the trace is bit-for-bit reproducible
	// even under the race detector's scheduling perturbation.
	s := NewService(r, Config{
		Workers: 1, Shards: shards,
		Runner: runner, Now: func() time.Time { return base },
	})
	for _, c := range goldenWorkload() {
		if err := s.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	deadline := time.Now().Add(60 * time.Second)
	for s.PendingCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("golden run did not converge: %d pending", s.PendingCount())
		}
		if err := s.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond) // let the build worker drain
	}
	files := map[string]string{}
	snap := r.Head().Snapshot()
	for _, p := range snap.Paths() {
		content, _ := snap.Read(p)
		files[p] = content
	}
	return goldenTrace{
		outcomes: s.Outcomes(),
		history:  r.History(),
		headLen:  r.Len(),
		files:    files,
	}
}

// TestGoldenOneShardMatchesSinglePlanner is the acceptance golden trace: the
// sharded runtime with one shard (Shards: 1) must reproduce the single-planner
// engine (Shards: 0) bit for bit — same outcome sequence (IDs, states,
// reasons, commit IDs), same commit history, same head snapshot.
func TestGoldenOneShardMatchesSinglePlanner(t *testing.T) {
	single := goldenRun(t, 0)
	sharded := goldenRun(t, 1)

	if len(sharded.outcomes) != len(single.outcomes) {
		t.Fatalf("outcome count: sharded %d, single %d", len(sharded.outcomes), len(single.outcomes))
	}
	for i := range single.outcomes {
		l, s := single.outcomes[i], sharded.outcomes[i]
		if l.ID != s.ID || l.State != s.State || l.Reason != s.Reason || l.Commit != s.Commit {
			t.Fatalf("outcome %d diverges:\nsingle  %+v\nsharded %+v", i, l, s)
		}
	}
	if sharded.headLen != single.headLen {
		t.Fatalf("mainline length: sharded %d, single %d", sharded.headLen, single.headLen)
	}
	if len(sharded.history) != len(single.history) {
		t.Fatalf("history length: sharded %d, single %d", len(sharded.history), len(single.history))
	}
	for i := range single.history {
		if sharded.history[i] != single.history[i] {
			t.Fatalf("commit %d diverges: sharded %s, single %s", i, sharded.history[i], single.history[i])
		}
	}
	if len(sharded.files) != len(single.files) {
		t.Fatalf("head file count: sharded %d, single %d", len(sharded.files), len(single.files))
	}
	for p, want := range single.files {
		if sharded.files[p] != want {
			t.Fatalf("head file %s: sharded %q, single %q", p, sharded.files[p], want)
		}
	}
	// Sanity: the golden workload exercised all three decision kinds.
	var committed, rejected int
	for _, o := range single.outcomes {
		if o.State == change.StateCommitted {
			committed++
		} else {
			rejected++
		}
	}
	if committed == 0 || rejected < 2 {
		t.Fatalf("workload too weak: %d committed, %d rejected", committed, rejected)
	}
}
