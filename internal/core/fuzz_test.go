package core

import (
	"os"
	"path/filepath"
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/store"
)

// FuzzOpenRecovered boots a service from arbitrary bytes as journal.jsonl
// and journal.jsonl.snap. A boot returns a service or an error, never
// panics, and a service it returns answers no change as committed to a
// commit its mainline lacks. The checked-in corpus holds a real journal and
// snapshot with commit, submit, outcome and snap-head records.
func FuzzOpenRecovered(f *testing.F) {
	f.Fuzz(func(t *testing.T, journal, snap []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(store.SnapshotPath(path), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		svc, err := OpenRecovered(newRepo(), path, Config{Workers: 1})
		if err != nil {
			return
		}
		defer svc.CloseJournal()
		svc.mu.Lock()
		defer svc.mu.Unlock()
		for id, st := range svc.statuses {
			if st.State != change.StateCommitted {
				continue
			}
			if _, err := svc.repo.Lookup(st.Commit); err != nil {
				t.Fatalf("%s answers committed as %s, absent from the mainline", id, st.Commit)
			}
		}
	})
}
