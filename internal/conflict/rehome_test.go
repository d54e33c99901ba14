package conflict

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/buildgraph"
	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// rehomeTargets is the bench/ monorepo's per-subtree DAG: liba ← libb ← bin,
// and test on libb, two sources each.
var rehomeTargets = []string{"liba", "libb", "bin", "test"}

// rehomeBuild renders a subtree's BUILD file. testOnLiba rewires test's dep
// and binOneSrc drops a source from bin — the two structure edits; note is a
// comment line, the content-only edit.
func rehomeBuild(s int, testOnLiba, binOneSrc bool, note string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", note)
	deps := map[string]string{"libb": "liba", "bin": "libb", "test": "libb"}
	if testOnLiba {
		deps["test"] = "liba"
	}
	for _, t := range rehomeTargets {
		srcs := t + "_0.go," + t + "_1.go"
		if t == "bin" && binOneSrc {
			srcs = t + "_0.go"
		}
		fmt.Fprintf(&sb, "target %s srcs=%s", t, srcs)
		if d := deps[t]; d != "" {
			fmt.Fprintf(&sb, " deps=//s%d:%s", s, d)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestRehomedAnalysesMatchColdAnalyzer is the property behind re-homing: over
// seeded random histories, after every head move each analysis the cache
// kept must read, at the new head, exactly what a cold analyzer computes
// there — the same δ names, the same StructureChanged, and a patch that still
// applies. The histories mix commits that share targets but not files,
// same-file commits, content-only BUILD edits, creation and deletion of
// unowned files, and structure edits, both pending and landing.
func TestRehomedAnalysesMatchColdAnalyzer(t *testing.T) {
	const subtrees, steps = 2, 160
	var sharedSurvivors, structureDrops, pathDrops int
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		files := map[string]string{"docs/readme.txt": "readme"}
		var srcs []string
		for s := 0; s < subtrees; s++ {
			files[fmt.Sprintf("s%d/BUILD", s)] = rehomeBuild(s, false, false, "v0")
			for _, tg := range rehomeTargets {
				for f := 0; f < 2; f++ {
					p := fmt.Sprintf("s%d/%s_%d.go", s, tg, f)
					files[p] = "package " + tg + "\n"
					srcs = append(srcs, p)
				}
			}
		}
		r := repo.New(files)
		a := New(r)

		gen := func(id string) *change.Change {
			s := rng.Intn(subtrees)
			build := fmt.Sprintf("s%d/BUILD", s)
			switch kind := rng.Intn(20); {
			case kind < 6: // line insert: always applies, shares the file's targets
				p := srcs[rng.Intn(len(srcs))]
				return &change.Change{ID: change.ID(id), Patch: repo.Patch{Changes: []repo.FileChange{
					repo.InsertLines(p, 1, []string{"// " + id}),
				}}}
			case kind < 11: // whole-file edit: stops applying once the file moves
				return mkChange(t, r, id, srcs[rng.Intn(len(srcs))], "package x // "+id+"\n")
			case kind < 14: // content-only BUILD edit: a new comment line
				cur, _ := r.Head().Snapshot().Read(build)
				_, rest, _ := strings.Cut(cur, "\n")
				return mkChange(t, r, id, build, "# "+id+"\n"+rest)
			case kind < 17: // create or delete an unowned file
				p := fmt.Sprintf("docs/n%d.txt", rng.Intn(3))
				cur, ok := r.Head().Snapshot().Read(p)
				if !ok {
					return mkChange(t, r, id, p, id)
				}
				return &change.Change{ID: change.ID(id), Patch: repo.Patch{Changes: []repo.FileChange{
					{Path: p, Op: repo.OpDelete, BaseHash: repo.HashContent(cur)},
				}}}
			default: // structure edit (or, by chance, the structure already there)
				return mkChange(t, r, id, build, rehomeBuild(s, rng.Intn(2) == 0, rng.Intn(2) == 0, id))
			}
		}

		var pending []*change.Change
		for step := 0; step < steps; step++ {
			id := fmt.Sprintf("s%d-%03d", seed, step)
			if rng.Intn(5) < 3 || len(pending) < 3 {
				pending = append(pending, gen(id))
				if _, failed := a.BuildGraph(pending); len(failed) != 0 {
					t.Fatalf("seed %d step %d: a change authored at head failed: %v", seed, step, failed)
				}
				continue
			}

			// Head move: land a pending change or an outside one.
			oldHead := r.Head().Snapshot()
			land := gen(id)
			if i := rng.Intn(len(pending)); rng.Intn(2) == 0 {
				land = pending[i]
				pending = append(pending[:i:i], pending[i+1:]...)
			}
			if _, err := r.CommitPatch(r.Head().ID, land.Patch, "dev", string(land.ID), time.Time{}); err != nil {
				continue // a pending change that no longer applies: it leaves
			}
			before := a.Stats()
			a.mu.Lock()
			if err := a.refreshHeadLocked(); err != nil {
				a.mu.Unlock()
				t.Fatalf("seed %d step %d: head does not analyze: %v", seed, step, err)
			}
			kept := make([]*Analysis, 0, len(a.analyses))
			for _, an := range a.analyses {
				kept = append(kept, an)
			}
			a.mu.Unlock()
			sort.Slice(kept, func(i, j int) bool { return kept[i].Change.ID < kept[j].Change.ID })

			gOld, errOld := buildgraph.Analyze(oldHead)
			gNew, errNew := buildgraph.Analyze(r.Head().Snapshot())
			if errOld != nil || errNew != nil {
				t.Fatalf("seed %d step %d: heads do not analyze: %v / %v", seed, step, errOld, errNew)
			}
			moved := buildgraph.Diff(gOld, gNew)
			if dropped := a.Stats().SelectiveInvalidations - before.SelectiveInvalidations; dropped > 0 {
				if buildgraph.SameStructure(gOld, gNew) {
					pathDrops += dropped
				} else {
					structureDrops += dropped
				}
			}

			cold := New(r)
			for _, an := range kept {
				c := an.Change
				want, err := cold.Analyze(c)
				if err != nil {
					t.Fatalf("seed %d step %d: %s kept across the move but a cold analyzer says: %v", seed, step, c.ID, err)
				}
				if got, want := an.Delta.Names(), want.Delta.Names(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: %s kept δ names %v, cold analyzer %v", seed, step, c.ID, got, want)
				}
				if an.StructureChanged != want.StructureChanged {
					t.Fatalf("seed %d step %d: %s kept StructureChanged=%v, cold analyzer %v",
						seed, step, c.ID, an.StructureChanged, want.StructureChanged)
				}
				if an.Head != r.Head().ID {
					t.Fatalf("seed %d step %d: %s kept at head %s, not re-homed", seed, step, c.ID, an.Head)
				}
				if buildgraph.NameIntersectionConflict(an.Delta, moved) {
					sharedSurvivors++
				}
			}

			// Re-analyse what was dropped; what no longer applies leaves.
			_, failed := a.BuildGraph(pending)
			live := pending[:0:0]
			for _, c := range pending {
				if failed[c.ID] == nil {
					live = append(live, c)
				} else if !IsApplyFailure(failed[c.ID]) {
					t.Fatalf("seed %d step %d: %s failed analysis: %v", seed, step, c.ID, failed[c.ID])
				}
			}
			pending = live
		}
	}
	// The histories must have exercised every side of the rule: survivors
	// that share a target with the move, and drops for each condition.
	t.Logf("shared-target survivors %d, structure drops %d, path drops %d", sharedSurvivors, structureDrops, pathDrops)
	if sharedSurvivors == 0 || structureDrops == 0 || pathDrops == 0 {
		t.Fatalf("history left a case unexercised: shared-target survivors %d, structure drops %d, path drops %d",
			sharedSurvivors, structureDrops, pathDrops)
	}
}
