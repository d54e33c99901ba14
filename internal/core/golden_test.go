package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/clock"
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

func goldenRun(t *testing.T) goldenTrace {
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
	// the driver single-threaded, so the trace is bit-for-bit reproducible
	// even under the race detector's scheduling perturbation.
	s := NewService(r, Config{
		Workers: 1, Runner: runner, Clock: clock.NewManual(base),
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

// goldenOutcomes, goldenHistory and goldenFiles pin the golden workload's
// trace: the outcome sequence (ID, state, reason, commit ID),
// the mainline history and the head files. They were captured while the
// service still had a second, direct-commit topology that reproduced this
// trace bit for bit, so any drift in decision order, rejection wording or
// commit content fails here.
var goldenOutcomes = []planner.Outcome{
	{ID: "c000", State: change.StateCommitted, Commit: "baecc826e8e4588def3d"},
	{ID: "c001", State: change.StateCommitted, Commit: "37092a2660921de61256"},
	{ID: "c002", State: change.StateCommitted, Commit: "df1b4511d2a19cfd6edf"},
	{ID: "c003", State: change.StateCommitted, Commit: "8e35a6795463a9edcfc5"},
	{ID: "c004", State: change.StateCommitted, Commit: "623c859eb8ceecb47540"},
	{ID: "c005", State: change.StateCommitted, Commit: "8ce0a00464cb68413b38"},
	{ID: "c006", State: change.StateCommitted, Commit: "6c132bf627ecab020444"},
	{ID: "c007", State: change.StateCommitted, Commit: "528ccd705ee8d15c6110"},
	{ID: "c008", State: change.StateCommitted, Commit: "47e230476a22cb8d8fb9"},
	{ID: "c009", State: change.StateRejected, Reason: "build failed at compile (target //sub1:t): compile error in sub1/f2.go"},
	{ID: "c010", State: change.StateCommitted, Commit: "486494eaab6980c64e8c"},
	{ID: "c011", State: change.StateCommitted, Commit: "767e53d580a571545124"},
	{ID: "c012", State: change.StateCommitted, Commit: "7704c92df85cbd365076"},
	{ID: "c013", State: change.StateCommitted, Commit: "11cd213c1ed88cd628d6"},
	{ID: "c014", State: change.StateRejected, Reason: "patch no longer applies: conflict: change c014 does not apply to head: applying patch 0: repo: file exists: create sub1/f3.go"},
	{ID: "c015", State: change.StateCommitted, Commit: "b738d7ca80747e180b90"},
	{ID: "c016", State: change.StateCommitted, Commit: "4c14c0625f00e77615c0"},
	{ID: "c017", State: change.StateCommitted, Commit: "194009c3cb676ec85752"},
	{ID: "c018", State: change.StateCommitted, Commit: "5fb5b669537d1c8f0ee0"},
	{ID: "c019", State: change.StateCommitted, Commit: "d931d8c640bc3e089f60"},
}

var goldenHistory = []repo.CommitID{
	"4ffbacede7b2494a898c",
	"baecc826e8e4588def3d",
	"37092a2660921de61256",
	"df1b4511d2a19cfd6edf",
	"8e35a6795463a9edcfc5",
	"623c859eb8ceecb47540",
	"8ce0a00464cb68413b38",
	"6c132bf627ecab020444",
	"528ccd705ee8d15c6110",
	"47e230476a22cb8d8fb9",
	"486494eaab6980c64e8c",
	"767e53d580a571545124",
	"7704c92df85cbd365076",
	"11cd213c1ed88cd628d6",
	"b738d7ca80747e180b90",
	"4c14c0625f00e77615c0",
	"194009c3cb676ec85752",
	"5fb5b669537d1c8f0ee0",
	"d931d8c640bc3e089f60",
}

var goldenFiles = map[string]string{
	"sub0/BUILD":  "target t srcs=lib.go,f0.go,f1.go,f2.go,f3.go,f4.go,f5.go,f6.go,f7.go",
	"sub0/f0.go":  "content 0",
	"sub0/f1.go":  "content 4",
	"sub0/f2.go":  "content 8",
	"sub0/f3.go":  "content 12",
	"sub0/f4.go":  "content 16",
	"sub0/lib.go": "lib v1",
	"sub1/BUILD":  "target t srcs=lib.go,f0.go,f1.go,f2.go,f3.go,f4.go,f5.go,f6.go,f7.go",
	"sub1/f0.go":  "content 1",
	"sub1/f1.go":  "content 5",
	"sub1/f3.go":  "content 13",
	"sub1/f4.go":  "content 17",
	"sub1/lib.go": "lib v1",
	"sub2/BUILD":  "target t srcs=lib.go,f0.go,f1.go,f2.go,f3.go,f4.go,f5.go,f6.go,f7.go",
	"sub2/f0.go":  "content 2",
	"sub2/f1.go":  "content 6",
	"sub2/f2.go":  "content 10",
	"sub2/f4.go":  "content 18",
	"sub2/lib.go": "lib v1",
	"sub3/BUILD":  "target t srcs=lib.go,f0.go,f1.go,f2.go,f3.go,f4.go,f5.go,f6.go,f7.go",
	"sub3/f0.go":  "content 3",
	"sub3/f1.go":  "content 7",
	"sub3/f2.go":  "content 11",
	"sub3/f3.go":  "content 15",
	"sub3/f4.go":  "content 19",
	"sub3/lib.go": "lib v1",
}

// TestGoldenTrace is the acceptance golden trace: the service reproduces
// the pinned outcome sequence, commit history and head snapshot exactly.
func TestGoldenTrace(t *testing.T) {
	got := goldenRun(t)
	if len(got.outcomes) != len(goldenOutcomes) {
		t.Fatalf("outcome count %d, want %d", len(got.outcomes), len(goldenOutcomes))
	}
	for i, want := range goldenOutcomes {
		o := got.outcomes[i]
		if o.ID != want.ID || o.State != want.State || o.Reason != want.Reason || o.Commit != want.Commit {
			t.Fatalf("outcome %d diverges:\ngot  %+v\nwant %+v", i, o, want)
		}
	}
	if len(got.history) != len(goldenHistory) || got.headLen != len(goldenHistory) {
		t.Fatalf("history length %d (mainline %d), want %d", len(got.history), got.headLen, len(goldenHistory))
	}
	for i, want := range goldenHistory {
		if got.history[i] != want {
			t.Fatalf("commit %d = %s, want %s", i, got.history[i], want)
		}
	}
	if len(got.files) != len(goldenFiles) {
		t.Fatalf("head file count %d, want %d", len(got.files), len(goldenFiles))
	}
	for p, want := range goldenFiles {
		if got.files[p] != want {
			t.Fatalf("head file %s = %q, want %q", p, got.files[p], want)
		}
	}
}
