package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mastergreen/internal/repo"
)

var errDiskFull = errors.New("disk full")

// failAfter passes the first n bytes through to w and fails every write
// after that, as a full disk or a crash mid-save would.
type failAfter struct {
	w io.Writer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return f.w.Write(p)
	}
	n, _ := f.w.Write(p[:f.n])
	f.n = 0
	return n, errDiskFull
}

func loadFile(t *testing.T, path string) *repo.Repo {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := repo.Load(f)
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	return r
}

// TestSaveFileFailureKeepsPreviousFile: a save that fails at byte k of the
// new document, for k from the first byte to the last, leaves the previous
// file in place, loading to the same head, and no temporary file behind. A
// save that completes replaces it.
func TestSaveFileFailureKeepsPreviousFile(t *testing.T) {
	r := repo.New(map[string]string{"lib/BUILD": "target lib srcs=util.go", "lib/util.go": "package lib"})
	path := filepath.Join(t.TempDir(), "repo.json")
	if err := writeFileAtomic(path, r.Save); err != nil {
		t.Fatal(err)
	}
	saved := r.Head().ID
	for i := 0; i < 3; i++ {
		cur, _ := r.Head().Snapshot().Read("lib/util.go")
		p := repo.Patch{Changes: []repo.FileChange{{Path: "lib/util.go", Op: repo.OpModify,
			BaseHash: repo.HashContent(cur), NewContent: "package lib // " + string(rune('a'+i))}}}
		if _, err := r.CommitPatch(r.Head().ID, p, "dev", "m", time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	var doc bytes.Buffer
	if err := r.Save(&doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 17, doc.Len() / 2, doc.Len() - 1} {
		err := writeFileAtomic(path, func(w io.Writer) error { return r.Save(&failAfter{w: w, n: k}) })
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("k=%d: save error %v, want the writer's", k, err)
		}
		if got := loadFile(t, path).Head().ID; got != saved {
			t.Fatalf("k=%d: file loads to head %s after a failed save, want the previous %s", k, got, saved)
		}
		if left, _ := filepath.Glob(path + ".tmp*"); len(left) != 0 {
			t.Fatalf("k=%d: failed save left %v behind", k, left)
		}
	}
	if err := writeFileAtomic(path, r.Save); err != nil {
		t.Fatal(err)
	}
	if got := loadFile(t, path).Head().ID; got != r.Head().ID {
		t.Fatalf("completed save loads to head %s, want %s", got, r.Head().ID)
	}
}
