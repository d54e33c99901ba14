package shard

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/repo"
)

// TestEngineViewApplicabilityMatchesFreshCheck walks a random history of
// commits under a set of pending changes of every patch kind and, after each
// step, compares what the engine view reports — through its applicability
// memo — with a fresh Snapshot.Check of every pending change against the
// head. The steps are the ones the memo has to see through: a commit to a
// path a pending patch names (creating, rewriting, deleting it or editing
// its lines, so verdicts flip in both directions), a commit elsewhere, and a
// change withdrawn and submitted again under the same ID with another patch.
func TestEngineViewApplicabilityMatchesFreshCheck(t *testing.T) {
	const files = 6
	path := func(i int) string { return fmt.Sprintf("dir/f%d.go", i) }
	body := func(tag int) string { return fmt.Sprintf("package dir\n// keep\nvar v = %d\n// end\n", tag) }

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		initial := map[string]string{"other/elsewhere.go": "package other\n"}
		for i := 0; i < files; i += 2 { // odd files start absent
			initial[path(i)] = body(0)
		}
		r := repo.New(initial)
		view := &engineView{rt: &Runtime{repo: r}}

		// randomPatch builds a one- or two-file patch against the current
		// head (or blind, so some patches never apply).
		randomPatch := func() repo.Patch {
			var p repo.Patch
			snap := r.Head().Snapshot()
			for n := 1 + rng.Intn(2); n > 0; n-- {
				f := path(rng.Intn(files))
				cur, exists := snap.Read(f)
				switch op := rng.Intn(4); {
				case op == 0 || !exists && rng.Intn(2) == 0:
					p.Changes = append(p.Changes, repo.FileChange{Path: f, Op: repo.OpCreate, NewContent: body(rng.Intn(100))})
				case op == 1:
					p.Changes = append(p.Changes, repo.FileChange{Path: f, Op: repo.OpModify, BaseHash: repo.HashContent(cur), NewContent: body(rng.Intn(100))})
				case op == 2:
					p.Changes = append(p.Changes, repo.FileChange{Path: f, Op: repo.OpDelete, BaseHash: repo.HashContent(cur)})
				default:
					p.Changes = append(p.Changes, repo.EditLines(f, 2, []string{"// keep"}, []string{"// keep", fmt.Sprintf("// note %d", rng.Intn(100))}))
				}
			}
			return p
		}
		var pending []*change.Change
		for i := 0; i < 10; i++ {
			pending = append(pending, &change.Change{ID: change.ID(fmt.Sprintf("c%d", i)), Patch: randomPatch()})
		}

		verdict := map[change.ID]bool{} // applied at the previous step
		var toFailing, toApplying, kept, resubmitted int
		for step := 0; step < 80; step++ {
			switch op := rng.Intn(8); {
			case op < 5: // a commit to a path pending patches name
				f := path(rng.Intn(files))
				snap := r.Head().Snapshot()
				cur, exists := snap.Read(f)
				var fc repo.FileChange
				switch {
				case !exists:
					fc = repo.FileChange{Path: f, Op: repo.OpCreate, NewContent: body(rng.Intn(3))}
				case rng.Intn(3) == 0:
					fc = repo.FileChange{Path: f, Op: repo.OpDelete, BaseHash: repo.HashContent(cur)}
				case rng.Intn(2) == 0:
					fc = repo.FileChange{Path: f, Op: repo.OpModify, BaseHash: repo.HashContent(cur), NewContent: body(rng.Intn(3))}
				default:
					fc = repo.InsertLines(f, 1, []string{fmt.Sprintf("// landed %d", step)})
				}
				if _, err := r.CommitPatch(r.Head().ID, repo.Patch{Changes: []repo.FileChange{fc}}, "dev", "land", time.Time{}); err != nil {
					t.Fatal(err)
				}
			case op < 6: // a commit elsewhere
				fc := repo.InsertLines("other/elsewhere.go", 1, []string{fmt.Sprintf("// %d", step)})
				if _, err := r.CommitPatch(r.Head().ID, repo.Patch{Changes: []repo.FileChange{fc}}, "dev", "land", time.Time{}); err != nil {
					t.Fatal(err)
				}
			case op < 7: // withdrawn, and back under the same ID with another patch
				i := rng.Intn(len(pending))
				pending[i] = &change.Change{ID: pending[i].ID, Patch: randomPatch()}
				delete(verdict, pending[i].ID)
				resubmitted++
			default: // one change leaves, a new one arrives
				i := rng.Intn(len(pending))
				delete(verdict, pending[i].ID)
				pending = append(pending[:i:i], pending[i+1:]...)
				pending = append(pending, &change.Change{ID: change.ID(fmt.Sprintf("n%d", step)), Patch: randomPatch()})
			}

			g, failed := view.BuildGraph(pending)
			head := r.Head().Snapshot()
			var applying []change.ID
			for _, c := range pending {
				err := head.Check(c.Patch)
				if was, seen := verdict[c.ID]; seen {
					switch {
					case was && err != nil:
						toFailing++
					case !was && err == nil:
						toApplying++
					default:
						kept++
					}
				}
				verdict[c.ID] = err == nil
				if err == nil {
					applying = append(applying, c.ID)
					if got, bad := failed[c.ID]; bad {
						t.Fatalf("seed %d step %d: %s applies to head, view says: %v", seed, step, c.ID, got)
					}
					continue
				}
				want := conflict.ApplyError(c.ID, err).Error()
				if got := failed[c.ID]; got == nil || got.Error() != want {
					t.Fatalf("seed %d step %d: %s: view says %v, a fresh check says %s", seed, step, c.ID, got, want)
				}
			}
			if got := g.Order(); fmt.Sprint(got) != fmt.Sprint(applying) {
				t.Fatalf("seed %d step %d: graph over %v, applying changes are %v", seed, step, got, applying)
			}
			if len(failed)+len(applying) != len(pending) {
				t.Fatalf("seed %d step %d: %d failed + %d applying of %d pending", seed, step, len(failed), len(applying), len(pending))
			}
			if len(view.memo) != len(pending) {
				t.Fatalf("seed %d step %d: memo holds %d entries for %d pending changes", seed, step, len(view.memo), len(pending))
			}
		}
		if toFailing == 0 || toApplying == 0 || kept == 0 || resubmitted == 0 {
			t.Fatalf("seed %d: walk left a case unexercised: %d verdicts turned failing, %d turned applying, %d kept, %d re-submissions",
				seed, toFailing, toApplying, kept, resubmitted)
		}
	}
}

// TestEngineViewRechecksOnlyWhatMoved pins the memo's point: a tick after a
// commit elsewhere re-reads the pending patches' paths and nothing else —
// the remembered verdict (the very same error value) is returned — while a
// commit to a patch's own path produces a fresh one.
func TestEngineViewRechecksOnlyWhatMoved(t *testing.T) {
	r := repo.New(map[string]string{"a/a.go": "a v1\n", "b/b.go": "b v1\n"})
	view := &engineView{rt: &Runtime{repo: r}}
	stale := &change.Change{ID: "stale", Patch: repo.Patch{Changes: []repo.FileChange{
		{Path: "a/a.go", Op: repo.OpModify, BaseHash: repo.HashContent("a v0\n"), NewContent: "a v2\n"},
	}}}
	pending := []*change.Change{stale}
	land := func(p string, line string) {
		t.Helper()
		fc := repo.InsertLines(p, 1, []string{line})
		if _, err := r.CommitPatch(r.Head().ID, repo.Patch{Changes: []repo.FileChange{fc}}, "dev", "land", time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	_, failed := view.BuildGraph(pending)
	first := failed["stale"]
	if first == nil {
		t.Fatal("a modify against another base must not apply")
	}
	land("b/b.go", "// elsewhere")
	if _, failed = view.BuildGraph(pending); failed["stale"] != first {
		t.Fatalf("a commit elsewhere re-derived the verdict: %v", failed["stale"])
	}
	if n := testing.AllocsPerRun(20, func() { _ = view.applies(r.Head().Snapshot(), stale) }); n != 0 {
		t.Fatalf("an unchanged verdict costs %v allocations", n)
	}
	land("a/a.go", "// here")
	_, failed = view.BuildGraph(pending)
	if failed["stale"] == nil || failed["stale"] == first {
		t.Fatalf("a commit to the patch's path must re-run the check, got %v", failed["stale"])
	}
}
