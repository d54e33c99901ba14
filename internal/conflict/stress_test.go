package conflict

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// TestConcurrentAnalysisUnderHeadChurn hammers Analyze/Conflicts/BuildGraph
// from many goroutines while a committer advances HEAD, asserting that no
// stale-head verdict ever escapes: every Conflicts answer matches the
// head-invariant ground truth (or reports errHeadMoved for the caller to
// retry), BuildGraph never loses a true conflict edge mid-churn, and once
// the churn stops the graph and every cached delta's names agree exactly with
// a cold analyzer at the final head.
func TestConcurrentAnalysisUnderHeadChurn(t *testing.T) {
	const apps = 8
	const pairsPerApp = 2 // changes per app file: each app yields one conflicting pair
	const commits = 12

	files := map[string]string{
		"lib/BUILD":  "target lib srcs=lib.go",
		"lib/lib.go": "lib v0",
	}
	for i := 0; i < apps; i++ {
		deps := ""
		if i < apps/2 {
			deps = " deps=//lib:lib" // apps 0..3 are invalidated by lib commits
		}
		files[fmt.Sprintf("app%d/BUILD", i)] = fmt.Sprintf("target app%d srcs=main.go%s", i, deps)
		files[fmt.Sprintf("app%d/main.go", i)] = fmt.Sprintf("app %d v0", i)
	}
	r := repo.New(files)
	a := New(r)

	// Pending changes: (2k, 2k+1) edit the same app file, so exactly those
	// pairs conflict — regardless of where HEAD is, because commits only
	// touch lib/lib.go and app deltas stay {appK}.
	var pending []*change.Change
	for i := 0; i < apps; i++ {
		path := fmt.Sprintf("app%d/main.go", i)
		base := repo.HashContent(fmt.Sprintf("app %d v0", i))
		for v := 0; v < pairsPerApp; v++ {
			pending = append(pending, &change.Change{
				ID: change.ID(fmt.Sprintf("c%02d", i*pairsPerApp+v)),
				Patch: repo.Patch{Changes: []repo.FileChange{{
					Path: path, Op: repo.OpModify, BaseHash: base,
					NewContent: fmt.Sprintf("app %d edit %d", i, v),
				}}},
			})
		}
	}
	expectConflict := func(x, y int) bool { return x/pairsPerApp == y/pairsPerApp }

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Committer: advance HEAD by editing lib/lib.go, re-reading the current
	// content for each base hash.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= commits; k++ {
			head := r.Head()
			cur, _ := head.Snapshot().Read("lib/lib.go")
			p := repo.Patch{Changes: []repo.FileChange{{
				Path: "lib/lib.go", Op: repo.OpModify,
				BaseHash: repo.HashContent(cur), NewContent: fmt.Sprintf("lib v%d", k),
			}}}
			if _, err := r.CommitPatch(head.ID, p, "dev", "lib", time.Time{}); err != nil {
				report(fmt.Errorf("commit %d: %w", k, err))
				return
			}
		}
	}()

	// Conflict workers: every verdict must match ground truth or report a
	// head move.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 40; iter++ {
				for x := 0; x < len(pending); x++ {
					y := (x + 1 + (w+iter)%(len(pending)-1)) % len(pending)
					conf, err := a.Conflicts(pending[x], pending[y])
					if err != nil {
						if !errors.Is(err, errHeadMoved) {
							report(fmt.Errorf("Conflicts(%s,%s): %w", pending[x].ID, pending[y].ID, err))
						}
						continue
					}
					if conf != expectConflict(x, y) {
						report(fmt.Errorf("stale verdict: Conflicts(%s,%s)=%v, want %v",
							pending[x].ID, pending[y].ID, conf, expectConflict(x, y)))
					}
				}
			}
		}(w)
	}

	// BuildGraph workers: mid-churn the graph may carry conservative extra
	// edges, but a true conflict must never be missing.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				g, failed := a.BuildGraph(pending)
				if len(failed) != 0 {
					report(fmt.Errorf("BuildGraph failed set: %v", failed))
					return
				}
				for x := 0; x < len(pending); x++ {
					for y := x + 1; y < len(pending); y++ {
						if expectConflict(x, y) && !g.Conflict(pending[x].ID, pending[y].ID) {
							report(fmt.Errorf("lost conflict edge %s-%s", pending[x].ID, pending[y].ID))
						}
					}
				}
			}
		}()
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Quiesced: the graph must now match the ground truth exactly (any
	// conservative edges rescanned away) and every cached delta must equal a
	// cold analyzer's at the final head.
	g, failed := a.BuildGraph(pending)
	if len(failed) != 0 {
		t.Fatalf("final BuildGraph failed: %v", failed)
	}
	for x := 0; x < len(pending); x++ {
		for y := x + 1; y < len(pending); y++ {
			if got, want := g.Conflict(pending[x].ID, pending[y].ID), expectConflict(x, y); got != want {
				t.Errorf("final edge %s-%s = %v, want %v", pending[x].ID, pending[y].ID, got, want)
			}
		}
	}
	cold := New(r)
	for _, c := range pending {
		warm, err := a.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Head != r.Head().ID {
			t.Errorf("%s: cached analysis at head %s, repo head %s", c.ID, warm.Head, r.Head().ID)
		}
		// Names only: a survivor of the lib commits keeps its app target's
		// pre-move hash, which nothing reads (Analysis.Delta).
		if got, want := warm.Delta.Names(), want.Delta.Names(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cached delta names %v != cold %v", c.ID, got, want)
		}
	}
	if r.Len() != commits+1 {
		t.Fatalf("committer landed %d commits, want %d", r.Len()-1, commits)
	}
}
