package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/store"
)

// FuzzOpenRecovered boots a service from arbitrary bytes as journal.jsonl
// and journal.jsonl.snap. A boot returns a service or an error, never
// panics, and a service it returns holds each decision the records make
// once in its decision log, answers State with that entry, and answers no
// change as committed to a commit its mainline lacks. The checked-in corpus
// holds a real journal and snapshot with commit, submit, outcome and
// snap-head records, and a journal with a pending P0 change (deadline and
// benefit set) and a rejection.
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
		recs, err := store.LoadState(path)
		if err != nil {
			t.Fatal(err)
		}
		decided := map[change.ID]bool{}
		for _, r := range recs {
			switch {
			case r.Kind == store.KindCommit && r.Commit != nil:
				decided[r.Commit.ID] = true
			case r.Kind == store.KindOutcome && r.Outcome != nil:
				decided[r.Outcome.ID] = true
			}
		}
		log := svc.OutcomesAfter(0, math.MaxInt)
		if len(log) != len(decided) {
			t.Fatalf("the log holds %d decisions, the records decide %d changes", len(log), len(decided))
		}
		for _, o := range log {
			if !decided[o.ID] {
				t.Fatalf("%s is in the log twice or has no decision record", o.ID)
			}
			decided[o.ID] = false
			if st, err := svc.State(o.ID); err != nil || st != o {
				t.Fatalf("%s answers %+v (%v), its log entry is %+v", o.ID, st, err, o)
			}
			if o.State != change.StateCommitted {
				continue
			}
			if _, err := svc.repo.Lookup(o.Commit); err != nil {
				t.Fatalf("%s answers committed as %s, absent from the mainline", o.ID, o.Commit)
			}
		}
	})
}
