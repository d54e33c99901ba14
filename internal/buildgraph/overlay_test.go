package buildgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mastergreen/internal/repo"
)

// bruteDiff is Diff from first principles: a walk of every hash of both
// graphs, read back one target at a time.
func bruteDiff(base, changed map[string]string) Delta {
	d := Delta{}
	for name, h := range changed {
		if bh, ok := base[name]; !ok || bh != h {
			d[name] = h
		}
	}
	for name := range base {
		if _, ok := changed[name]; !ok {
			d[name] = DeletedHash
		}
	}
	return d
}

// TestOverlayMatchesColdAcrossFlattens walks a random edit history long
// enough to push the hash overlay past its bound several times: content
// edits (some of them reverts, which take entries out of the overlay again),
// now and then a structural edit (a source listing, a new target) that
// leaves the fast path, each analyzed incrementally against a randomly
// chosen earlier graph of the walk — the analyze cache's base is whatever
// was used last, not the parent. Every incremental graph must carry exactly
// the hashes a cold analysis of the same snapshot computes, and Diff between
// any two graphs of the walk, in both directions, must equal the full walk
// over their cold hashes.
func TestOverlayMatchesColdAcrossFlattens(t *testing.T) {
	const targets = 96
	rng := rand.New(rand.NewSource(5))
	files := randomDAGFiles(rng, targets)
	type state struct {
		snap repo.Snapshot
		g    *Graph
		cold map[string]string
	}
	snap := snapshotOf(files)
	g, err := analyzeCold(snap)
	if err != nil {
		t.Fatal(err)
	}
	walk := []state{{snap, g, hashesOf(g)}}
	var flattens, sharedDiffs, overlaid, structural int
	for step := 0; step < 200; step++ {
		from := walk[len(walk)-1]
		edits := map[string]string{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			f := files[2*rng.Intn(targets)+1] // a t.go
			if rng.Intn(3) == 0 {
				edits[f.path] = f.content // back to what the first table hashed
			} else {
				edits[f.path] = fmt.Sprintf("%s// rev %d\n", f.content, step)
			}
		}
		if rng.Intn(12) == 0 { // re-declare a package: same target, a source more or less
			structural++
			i := rng.Intn(targets)
			decl := files[2*i].content
			if cur, _ := from.snap.Read(files[2*i].path); cur == decl {
				decl = strings.Replace(decl, "srcs=t.go", fmt.Sprintf("srcs=t.go,extra%d.go", step), 1)
			}
			edits[files[2*i].path] = decl
		}
		if rng.Intn(20) == 0 { // a new package: a target the earlier graphs do not have
			structural++
			dir := fmt.Sprintf("n%03d", step)
			edits[dir+"/BUILD"] = fmt.Sprintf("target t srcs=t.go deps=//p%03d:t", rng.Intn(targets))
			edits[dir+"/t.go"] = "package " + dir
		}
		next := patchSnap(t, from.snap, edits)

		base := walk[rng.Intn(len(walk))]
		if rng.Intn(2) == 0 {
			base = from
		}
		inc, err := analyzeIncremental(next, base.snap, base.g)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		coldG, err := analyzeCold(next)
		if err != nil {
			t.Fatalf("step %d: cold: %v", step, err)
		}
		cold := hashesOf(coldG)
		if got := hashesOf(inc); !reflect.DeepEqual(got, cold) {
			t.Fatalf("step %d: incremental hashes differ from cold: %v", step, bruteDiff(cold, got))
		}
		if _, ok := inc.Hash("//nowhere:t"); ok {
			t.Fatalf("step %d: a hash for a target that does not exist", step)
		}
		if len(inc.over) > 0 {
			overlaid++
		}
		if SameStructure(inc, base.g) && inc.flat != base.g.flat {
			flattens++
		}
		cur := state{next, inc, cold}
		for _, other := range append([]state{base}, walk[max(0, len(walk)-6):]...) {
			if other.g.flat == inc.flat {
				sharedDiffs++
			}
			if got, want := Diff(other.g, inc), bruteDiff(other.cold, cold); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Diff(earlier, this) = %v, full walk = %v", step, got, want)
			}
			if got, want := Diff(inc, other.g), bruteDiff(cold, other.cold); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Diff(this, earlier) = %v, full walk = %v", step, got, want)
			}
		}
		walk = append(walk, cur)
	}
	if flattens < 3 || sharedDiffs == 0 || overlaid == 0 || structural == 0 {
		t.Fatalf("walk left a path unexercised: %d flattens, %d diffs over a shared table, %d overlaid graphs, %d structural edits",
			flattens, sharedDiffs, overlaid, structural)
	}
}
