package repo

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestRepo() *Repo {
	return New(map[string]string{
		"app/main.go":   "package main",
		"lib/util.go":   "package lib",
		"docs/README":   "hello",
		"app/BUILD":     "target app",
		"lib/BUILD":     "target lib",
		"app/extra.txt": "x",
	})
}

func modify(s Snapshot, path, newContent string) FileChange {
	cur, ok := s.Read(path)
	if !ok {
		panic("missing " + path)
	}
	return FileChange{Path: path, Op: OpModify, BaseHash: HashContent(cur), NewContent: newContent}
}

func TestNewRepoRoot(t *testing.T) {
	r := newTestRepo()
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	head := r.Head()
	if head.Parent != "" || head.Seq != 0 {
		t.Fatalf("bad root commit: %+v", head)
	}
	if head.Snapshot().Len() != 6 {
		t.Fatalf("root snapshot size = %d", head.Snapshot().Len())
	}
}

func TestSnapshotReadAndPaths(t *testing.T) {
	s := newTestRepo().Head().Snapshot()
	if c, ok := s.Read("docs/README"); !ok || c != "hello" {
		t.Fatalf("Read = %q, %v", c, ok)
	}
	if _, ok := s.Read("nope"); ok {
		t.Fatal("Read of missing path should fail")
	}
	paths := s.Paths()
	if len(paths) != 6 || paths[0] != "app/BUILD" {
		t.Fatalf("Paths = %v", paths)
	}
	under := s.PathsUnder("app/")
	if len(under) != 3 {
		t.Fatalf("PathsUnder(app/) = %v", under)
	}
}

func TestApplyCreateModifyDelete(t *testing.T) {
	s := newTestRepo().Head().Snapshot()
	p := Patch{Changes: []FileChange{
		{Path: "new.txt", Op: OpCreate, NewContent: "n"},
		modify(s, "docs/README", "bye"),
		{Path: "app/extra.txt", Op: OpDelete, BaseHash: HashContent("x")},
	}}
	next, err := s.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := next.Read("new.txt"); c != "n" {
		t.Errorf("create failed: %q", c)
	}
	if c, _ := next.Read("docs/README"); c != "bye" {
		t.Errorf("modify failed: %q", c)
	}
	if _, ok := next.Read("app/extra.txt"); ok {
		t.Error("delete failed")
	}
	// Original snapshot untouched.
	if c, _ := s.Read("docs/README"); c != "hello" {
		t.Error("Apply mutated receiver")
	}
}

func TestApplyErrors(t *testing.T) {
	s := newTestRepo().Head().Snapshot()
	cases := []struct {
		name string
		fc   FileChange
		want error
	}{
		{"create existing", FileChange{Path: "docs/README", Op: OpCreate}, ErrFileExists},
		{"modify missing", FileChange{Path: "nope", Op: OpModify}, ErrNoSuchFile},
		{"delete missing", FileChange{Path: "nope", Op: OpDelete}, ErrNoSuchFile},
		{"modify stale base", FileChange{Path: "docs/README", Op: OpModify, BaseHash: "bad"}, ErrMergeConflict},
		{"delete stale base", FileChange{Path: "docs/README", Op: OpDelete, BaseHash: "bad"}, ErrMergeConflict},
		{"unknown op", FileChange{Path: "docs/README", Op: FileOp(99)}, nil},
	}
	for _, c := range cases {
		_, err := s.Apply(Patch{Changes: []FileChange{c.fc}})
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestCheckMatchesMerged pins the dry-run Check to Merged: for every outcome
// class — clean sequences, each failure kind, intra-sequence effects — Check
// must agree with the materializing path on both success and the exact error
// string, since the planner's engine view relies on Check to reproduce
// analyzer rejection reasons verbatim.
func TestCheckMatchesMerged(t *testing.T) {
	r := newTestRepo()
	s := r.Head().Snapshot()
	cases := []struct {
		name    string
		patches []Patch
	}{
		{"clean create+modify+delete", []Patch{{Changes: []FileChange{
			{Path: "new.txt", Op: OpCreate, NewContent: "n"},
			modify(s, "docs/README", "bye"),
			{Path: "lib/util.go", Op: OpDelete, BaseHash: HashContent("util v1")},
		}}}},
		{"create existing", []Patch{{Changes: []FileChange{
			{Path: "docs/README", Op: OpCreate, NewContent: "dup"},
		}}}},
		{"modify missing", []Patch{{Changes: []FileChange{
			{Path: "nope", Op: OpModify, NewContent: "x"},
		}}}},
		{"modify stale base", []Patch{{Changes: []FileChange{
			{Path: "docs/README", Op: OpModify, BaseHash: "bad", NewContent: "x"},
		}}}},
		{"delete missing", []Patch{{Changes: []FileChange{
			{Path: "nope", Op: OpDelete},
		}}}},
		{"delete stale base", []Patch{{Changes: []FileChange{
			{Path: "docs/README", Op: OpDelete, BaseHash: "bad"},
		}}}},
		{"unknown op", []Patch{{Changes: []FileChange{
			{Path: "docs/README", Op: FileOp(99)},
		}}}},
		{"intra-patch create then modify", []Patch{{Changes: []FileChange{
			{Path: "new.txt", Op: OpCreate, NewContent: "n"},
			{Path: "new.txt", Op: OpModify, BaseHash: HashContent("n"), NewContent: "n2"},
		}}}},
		{"intra-patch delete then create", []Patch{{Changes: []FileChange{
			{Path: "docs/README", Op: OpDelete, BaseHash: HashContent("hello")},
			{Path: "docs/README", Op: OpCreate, NewContent: "reborn"},
		}}}},
		{"second patch conflicts with first", []Patch{
			{Changes: []FileChange{{Path: "new.txt", Op: OpCreate, NewContent: "a"}}},
			{Changes: []FileChange{{Path: "new.txt", Op: OpCreate, NewContent: "b"}}},
		}},
	}
	for _, c := range cases {
		_, mergedErr := r.Merged(r.Head().ID, c.patches...)
		checkErr := s.Check(c.patches...)
		switch {
		case mergedErr == nil && checkErr != nil:
			t.Errorf("%s: Check failed where Merged succeeded: %v", c.name, checkErr)
		case mergedErr != nil && checkErr == nil:
			t.Errorf("%s: Check passed where Merged failed: %v", c.name, mergedErr)
		case mergedErr != nil && mergedErr.Error() != checkErr.Error():
			t.Errorf("%s: error mismatch:\nMerged %v\nCheck  %v", c.name, mergedErr, checkErr)
		}
	}
	// Check must not mutate the snapshot.
	if c, _ := s.Read("docs/README"); c != "hello" {
		t.Error("Check mutated receiver")
	}
}

func TestMergeConflictBetweenPatches(t *testing.T) {
	// Two patches both authored against root, editing the same file: the
	// second must fail with ErrMergeConflict after the first applies.
	s := newTestRepo().Head().Snapshot()
	p1 := Patch{Changes: []FileChange{modify(s, "lib/util.go", "v1")}}
	p2 := Patch{Changes: []FileChange{modify(s, "lib/util.go", "v2")}}
	mid, err := s.Apply(p1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mid.Apply(p2); !errors.Is(err, ErrMergeConflict) {
		t.Fatalf("err = %v, want ErrMergeConflict", err)
	}
}

func TestIndependentPatchesCommute(t *testing.T) {
	s := newTestRepo().Head().Snapshot()
	p1 := Patch{Changes: []FileChange{modify(s, "lib/util.go", "v1")}}
	p2 := Patch{Changes: []FileChange{modify(s, "docs/README", "v2")}}
	a, err := s.Apply(p1)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.Apply(p2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Apply(p2)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := b.Apply(p1)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range ab.Paths() {
		c1, _ := ab.Read(path)
		c2, _ := ba.Read(path)
		if c1 != c2 {
			t.Fatalf("non-commuting independent patches at %s", path)
		}
	}
}

func TestCommitPatchAdvancesHead(t *testing.T) {
	r := newTestRepo()
	head := r.Head()
	p := Patch{Changes: []FileChange{modify(head.Snapshot(), "docs/README", "v2")}}
	c, err := r.CommitPatch(head.ID, p, "alice", "update docs", time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Head().ID != c.ID || c.Parent != head.ID || c.Seq != 1 {
		t.Fatalf("head not advanced correctly: %+v", c)
	}
	if got, _ := r.Head().Snapshot().Read("docs/README"); got != "v2" {
		t.Fatalf("content = %q", got)
	}
	if c.Author != "alice" || c.Message != "update docs" {
		t.Fatalf("metadata lost: %+v", c)
	}
}

func TestCommitPatchStaleHead(t *testing.T) {
	r := newTestRepo()
	root := r.Head()
	p1 := Patch{Changes: []FileChange{modify(root.Snapshot(), "docs/README", "v2")}}
	if _, err := r.CommitPatch(root.ID, p1, "a", "m1", time.Time{}); err != nil {
		t.Fatal(err)
	}
	p2 := Patch{Changes: []FileChange{modify(root.Snapshot(), "lib/util.go", "v2")}}
	if _, err := r.CommitPatch(root.ID, p2, "b", "m2", time.Time{}); !errors.Is(err, ErrStaleHead) {
		t.Fatalf("err = %v, want ErrStaleHead", err)
	}
	// Repo must be unchanged by the failed commit.
	if r.Len() != 2 {
		t.Fatalf("Len = %d after failed commit", r.Len())
	}
}

func TestLookupAtHistory(t *testing.T) {
	r := newTestRepo()
	root := r.Head()
	p := Patch{Changes: []FileChange{modify(root.Snapshot(), "docs/README", "v2")}}
	c1, err := r.CommitPatch(root.ID, p, "a", "m", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup(c1.ID)
	if err != nil || got.ID != c1.ID {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := r.Lookup("bogus"); !errors.Is(err, ErrNoSuchCommit) {
		t.Fatalf("Lookup bogus err = %v", err)
	}
	at, err := r.At(0)
	if err != nil || at.ID != root.ID {
		t.Fatalf("At(0) = %v, %v", at, err)
	}
	if _, err := r.At(5); !errors.Is(err, ErrNoSuchCommit) {
		t.Fatalf("At(5) err = %v", err)
	}
	h := r.History()
	if len(h) != 2 || h[0] != root.ID || h[1] != c1.ID {
		t.Fatalf("History = %v", h)
	}
	// History returns a copy.
	h[0] = "tampered"
	if r.History()[0] == "tampered" {
		t.Fatal("History aliases internal state")
	}
}

func TestMerged(t *testing.T) {
	r := newTestRepo()
	root := r.Head()
	s := root.Snapshot()
	p1 := Patch{Changes: []FileChange{modify(s, "docs/README", "v1")}}
	p2 := Patch{Changes: []FileChange{modify(s, "lib/util.go", "v2")}}
	snap, err := r.Merged(root.ID, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := snap.Read("docs/README"); c != "v1" {
		t.Errorf("p1 not applied: %q", c)
	}
	if c, _ := snap.Read("lib/util.go"); c != "v2" {
		t.Errorf("p2 not applied: %q", c)
	}
	// Head unchanged: Merged is a dry-run.
	if r.Len() != 1 {
		t.Fatal("Merged must not commit")
	}
	if _, err := r.Merged("bogus"); !errors.Is(err, ErrNoSuchCommit) {
		t.Fatalf("Merged bogus base err = %v", err)
	}
	// Conflicting second patch reports which patch failed.
	pc := Patch{Changes: []FileChange{modify(s, "docs/README", "v9")}}
	if _, err := r.Merged(root.ID, p1, pc); !errors.Is(err, ErrMergeConflict) {
		t.Fatalf("Merged conflict err = %v", err)
	}
}

func TestDiffPatchRoundTrip(t *testing.T) {
	s := newTestRepo().Head().Snapshot()
	target := NewSnapshot(map[string]string{
		"app/main.go": "package main", // unchanged
		"lib/util.go": "package lib2", // modified
		"new/file.go": "new",          // created
		// docs/README, BUILD files, extra.txt deleted
	})
	p := s.DiffPatch(target)
	got, err := s.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != target.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), target.Len())
	}
	for _, path := range target.Paths() {
		w, _ := target.Read(path)
		g, _ := got.Read(path)
		if g != w {
			t.Errorf("%s = %q, want %q", path, g, w)
		}
	}
}

func TestDiffPatchProperty(t *testing.T) {
	// Property: for random before/after trees, DiffPatch(before, after)
	// applied to before always reproduces after exactly.
	type tree map[string]uint8
	f := func(before, after tree) bool {
		b := map[string]string{}
		for k, v := range before {
			b[fmt.Sprintf("f%d", len(k)%7)] = fmt.Sprint(v) // collapse to few paths
		}
		a := map[string]string{}
		for k, v := range after {
			a[fmt.Sprintf("f%d", len(k)%7)] = fmt.Sprint(v)
		}
		sb, sa := NewSnapshot(b), NewSnapshot(a)
		got, err := sb.Apply(sb.DiffPatch(sa))
		if err != nil {
			return false
		}
		if got.Len() != sa.Len() {
			return false
		}
		for _, p := range sa.Paths() {
			w, _ := sa.Read(p)
			g, _ := got.Read(p)
			if g != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPatchPaths(t *testing.T) {
	p := Patch{Changes: []FileChange{
		{Path: "b", Op: OpCreate}, {Path: "a", Op: OpCreate}, {Path: "b", Op: OpModify},
	}}
	got := p.Paths()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Paths = %v", got)
	}
}

func TestFileOpString(t *testing.T) {
	if OpCreate.String() != "create" || OpModify.String() != "modify" || OpDelete.String() != "delete" {
		t.Fatal("bad op strings")
	}
	if FileOp(42).String() != "FileOp(42)" {
		t.Fatalf("unknown op = %s", FileOp(42))
	}
}

func TestConcurrentCommits(t *testing.T) {
	// Hammer CommitPatch from many goroutines; exactly the CAS winners land
	// and history stays linear. Run with -race to verify locking.
	r := New(map[string]string{"counter": "0"})
	const workers = 16
	var wg sync.WaitGroup
	landed := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				head := r.Head()
				cur, _ := head.Snapshot().Read("counter")
				p := Patch{Changes: []FileChange{{
					Path: "counter", Op: OpModify,
					BaseHash:   HashContent(cur),
					NewContent: fmt.Sprintf("%d-%d", w, i),
				}}}
				if _, err := r.CommitPatch(head.ID, p, "w", "m", time.Time{}); err == nil {
					landed[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range landed {
		total += n
	}
	if r.Len() != total+1 {
		t.Fatalf("history len %d != landed %d + root", r.Len(), total)
	}
	// Verify parent links form a chain.
	h := r.History()
	for i := 1; i < len(h); i++ {
		c, err := r.Lookup(h[i])
		if err != nil || c.Parent != h[i-1] {
			t.Fatalf("broken chain at %d", i)
		}
	}
}

func TestHashContentStable(t *testing.T) {
	if HashContent("a") == HashContent("b") {
		t.Fatal("distinct content hashed equal")
	}
	if HashContent("x") != HashContent("x") {
		t.Fatal("hash not deterministic")
	}
	if len(HashContent("x")) != 16 {
		t.Fatalf("hash length = %d", len(HashContent("x")))
	}
}

func TestChangedPaths(t *testing.T) {
	a := NewSnapshot(map[string]string{"same": "1", "mod": "old", "gone": "x"})
	b := NewSnapshot(map[string]string{"same": "1", "mod": "new", "added": "y"})
	got := a.ChangedPaths(b)
	want := []string{"added", "gone", "mod"}
	if len(got) != len(want) {
		t.Fatalf("ChangedPaths = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChangedPaths = %v, want %v", got, want)
		}
	}
	// Symmetric set, both directions sorted.
	if rev := b.ChangedPaths(a); len(rev) != len(want) {
		t.Fatalf("reverse ChangedPaths = %v", rev)
	}
	if d := a.ChangedPaths(a); len(d) != 0 {
		t.Fatalf("self diff = %v", d)
	}
}

// referenceDiffPatch is DiffPatch's definition, computed the slow way: walk
// both whole trees, then sort by path.
func referenceDiffPatch(s, other Snapshot) Patch {
	var p Patch
	other.Range(func(path, newC string) bool {
		oldC, ok := s.Read(path)
		switch {
		case !ok:
			p.Changes = append(p.Changes, FileChange{Path: path, Op: OpCreate, NewContent: newC})
		case oldC != newC:
			p.Changes = append(p.Changes, FileChange{Path: path, Op: OpModify, BaseHash: HashContent(oldC), NewContent: newC})
		}
		return true
	})
	s.Range(func(path, oldC string) bool {
		if _, ok := other.Read(path); !ok {
			p.Changes = append(p.Changes, FileChange{Path: path, Op: OpDelete, BaseHash: HashContent(oldC)})
		}
		return true
	})
	sort.Slice(p.Changes, func(i, j int) bool { return p.Changes[i].Path < p.Changes[j].Path })
	return p
}

// TestSnapshotTrieAgainstModel drives a long commit chain of creates,
// modifies, deletes and multi-file patches and checks every snapshot accessor
// against a plain-map model at each step; ChangedPaths and DiffPatch against
// random ancestors (and from them back) against the model's diff and the
// whole-tree DiffPatch definition; and that no later Apply changes an earlier
// snapshot.
func TestSnapshotTrieAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := map[string]string{}
	for i := 0; i < 40; i++ {
		model[fmt.Sprintf("seed/f%d", i)] = fmt.Sprintf("v%d", i)
	}
	snap := NewSnapshot(model)

	check := func(step int, s Snapshot, m map[string]string) {
		t.Helper()
		if s.Len() != len(m) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(m))
		}
		seen := 0
		s.Range(func(p, c string) bool {
			if m[p] != c {
				t.Fatalf("step %d: Range %s = %q, want %q", step, p, c, m[p])
			}
			seen++
			return true
		})
		if seen != len(m) {
			t.Fatalf("step %d: Range visited %d, want %d", step, seen, len(m))
		}
		for p, want := range m {
			if got, ok := s.Read(p); !ok || got != want {
				t.Fatalf("step %d: Read(%s) = %q,%v, want %q", step, p, got, ok, want)
			}
		}
		if _, ok := s.Read("never/created"); ok {
			t.Fatalf("step %d: phantom file", step)
		}
		// Equal content must mean equal ContentID regardless of derivation.
		if rebuilt := NewSnapshot(m); rebuilt.ContentID() != s.ContentID() {
			t.Fatalf("step %d: ContentID %s != rebuilt %s", step, s.ContentID(), rebuilt.ContentID())
		}
	}
	checkDiff := func(step int, from, to Snapshot, fromM, toM map[string]string) {
		t.Helper()
		var want []string
		for p, c := range toM {
			if oc, ok := fromM[p]; !ok || oc != c {
				want = append(want, p)
			}
		}
		for p := range fromM {
			if _, ok := toM[p]; !ok {
				want = append(want, p)
			}
		}
		sort.Strings(want)
		if got := from.ChangedPaths(to); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: ChangedPaths = %v, want %v", step, got, want)
		}
		if got, ref := from.DiffPatch(to), referenceDiffPatch(from, to); !reflect.DeepEqual(got, ref) {
			t.Fatalf("step %d: DiffPatch = %+v, want %+v", step, got, ref)
		}
	}

	snaps := []Snapshot{snap}
	models := []map[string]string{maps.Clone(model)}
	for step := 0; step < 400; step++ {
		m := maps.Clone(models[len(models)-1])
		var p Patch
		for k := 1 + rng.Intn(3); k > 0; k-- {
			var path string
			if rng.Intn(2) == 0 {
				path = fmt.Sprintf("seed/f%d", rng.Intn(40))
			} else {
				path = fmt.Sprintf("grow/d%d/f%d", rng.Intn(8), rng.Intn(60))
			}
			cur, ok := m[path]
			switch {
			case !ok:
				p.Changes = append(p.Changes, FileChange{Path: path, Op: OpCreate, NewContent: fmt.Sprintf("c%d", step)})
				m[path] = fmt.Sprintf("c%d", step)
			case rng.Intn(3) == 0:
				p.Changes = append(p.Changes, FileChange{Path: path, Op: OpDelete, BaseHash: HashContent(cur)})
				delete(m, path)
			default:
				p.Changes = append(p.Changes, FileChange{Path: path, Op: OpModify, BaseHash: HashContent(cur), NewContent: fmt.Sprintf("m%d", step)})
				m[path] = fmt.Sprintf("m%d", step)
			}
		}
		next, err := snap.Apply(p)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		check(step, next, m)
		if step%5 == 0 {
			a := rng.Intn(len(snaps))
			checkDiff(step, snaps[a], next, models[a], m)
			checkDiff(step, next, snaps[a], m, models[a])
		}
		snap = next
		snaps = append(snaps, next)
		models = append(models, m)
	}
	// Every historical snapshot must be untouched by later Applies.
	for i := 0; i < len(snaps); i += 23 {
		check(-i, snaps[i], models[i])
	}
	// Two unrelated tries share no node: the diff falls back to comparing
	// whole subtrees and must still be exact.
	rebuilt := NewSnapshot(models[200])
	checkDiff(-1, rebuilt, snap, models[200], models[len(models)-1])
}

// TestZeroSnapshotIsEmpty: the zero Snapshot is the empty tree.
func TestZeroSnapshotIsEmpty(t *testing.T) {
	var s Snapshot
	if _, ok := s.Read("a"); ok || s.Len() != 0 || len(s.Paths()) != 0 {
		t.Fatalf("zero Snapshot is not empty: Len %d, Paths %v", s.Len(), s.Paths())
	}
	if s.ContentID() != NewSnapshot(nil).ContentID() {
		t.Fatalf("ContentID %s, want the empty tree's %s", s.ContentID(), NewSnapshot(nil).ContentID())
	}
	next, err := s.Apply(Patch{Changes: []FileChange{{Path: "a", Op: OpCreate, NewContent: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ChangedPaths(next); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("ChangedPaths from the zero Snapshot = %v, want [a]", got)
	}
	if _, ok := s.Read("a"); ok {
		t.Fatal("Apply changed the zero Snapshot")
	}
}
