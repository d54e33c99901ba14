package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/repo"
	"mastergreen/internal/store"
)

// rejectBugs fails every build whose tree holds a file reading "bug".
var rejectBugs = buildsys.RunnerFunc(func(_ context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
	bug := false
	snap.Range(func(_, content string) bool {
		bug = content == "bug"
		return !bug
	})
	if bug {
		return errors.New("lint: bug")
	}
	return nil
})

// crashRun is a journal written by a durable service that committed
// changes one at a time and rejected one, with what the test needs to
// predict any boot from it: every change's patch, in commit order.
type crashRun struct {
	journal []byte
	patches map[change.ID]repo.Patch
	order   []change.ID // committed, in seq order
	reject  change.ID
}

// lineEnd is where a journal line's record ends (its newline excluded): a
// byte prefix of at least that length holds the record whole.
type lineEnd struct {
	kind string
	id   change.ID
	end  int
}

// journalLines names each line of a journal by its record kind and change,
// decoded with a local schema rather than the store's.
func journalLines(t *testing.T, journal []byte) []lineEnd {
	t.Helper()
	var out []lineEnd
	start := 0
	for start < len(journal) {
		n := bytes.IndexByte(journal[start:], '\n')
		if n < 0 {
			t.Fatalf("journal ends without a newline")
		}
		var rec struct {
			Kind    string
			Submit  *struct{ ID change.ID }
			Outcome *struct{ ID change.ID }
			Commit  *struct{ ID change.ID }
		}
		if err := json.Unmarshal(journal[start:start+n], &rec); err != nil {
			t.Fatal(err)
		}
		l := lineEnd{kind: rec.Kind, end: start + n}
		switch {
		case rec.Submit != nil:
			l.id = rec.Submit.ID
		case rec.Outcome != nil:
			l.id = rec.Outcome.ID
		case rec.Commit != nil:
			l.id = rec.Commit.ID
		}
		out = append(out, l)
		start += n + 1
	}
	return out
}

// writeCrashRun commits k changes to lib/lib.go one at a time through a
// journaled service, with one rejected change after the third.
func writeCrashRun(t *testing.T, k int) crashRun {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	svc, err := OpenRecovered(newRepo(), path, Config{Workers: 2, Runner: rejectBugs})
	if err != nil {
		t.Fatal(err)
	}
	run := crashRun{patches: map[change.ID]repo.Patch{}, reject: "bad"}
	submit := func(c *change.Change) {
		t.Helper()
		run.patches[c.ID] = c.Patch
		if err := svc.Submit(c); err != nil {
			t.Fatal(err)
		}
		if err := svc.ProcessAll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		id := change.ID(fmt.Sprintf("c%d", i))
		submit(mkChange(svc.Repo(), string(id), "lib/lib.go", fmt.Sprintf("lib v%d", i+2)))
		run.order = append(run.order, id)
		if i == 2 {
			submit(mkChange(svc.Repo(), string(run.reject), "doc/readme.md", "bug"))
		}
	}
	if err := svc.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if run.journal, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return run
}

// checkBoot boots a service from the seed on journalPath and checks it
// against what the records complete on disk promise: the mainline is the
// seed plus exactly the complete commits, in seq order; a change with a
// complete rejection is rejected, every other accepted change is pending;
// and no answer names a commit absent from the mainline. It returns the
// booted service.
func checkBoot(t *testing.T, run crashRun, journalPath string, committed, rejected, accepted map[change.ID]bool) *Service {
	t.Helper()
	svc, err := OpenRecovered(newRepo(), journalPath, Config{Workers: 2, Runner: rejectBugs})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	model := newRepo()
	for _, id := range run.order {
		if committed[id] {
			if _, err := model.CommitPatch(model.Head().ID, run.patches[id], "dev", "test "+string(id), time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := svc.Repo()
	if got, want := strings.Join(ids(r.History()), " "), strings.Join(ids(model.History()), " "); got != want {
		t.Fatalf("mainline %s, want %s", got, want)
	}
	if got, want := r.Head().Snapshot().ContentID(), model.Head().Snapshot().ContentID(); got != want {
		t.Fatalf("head content %s, want %s", got, want)
	}
	for id := range run.patches {
		st, err := svc.State(id)
		want := change.StatePending
		switch {
		case committed[id]:
			want = change.StateCommitted
		case rejected[id]:
			want = change.StateRejected
		case !accepted[id]:
			if err == nil {
				t.Fatalf("%s never accepted, yet answers %+v", id, st)
			}
			continue
		}
		if err != nil || st.State != want {
			t.Fatalf("%s = %+v, %v; want %s", id, st, err, want)
		}
		if st.Commit != "" {
			if _, err := r.Lookup(st.Commit); err != nil {
				t.Fatalf("%s names commit %s, absent from the mainline", id, st.Commit)
			}
		}
	}
	return svc
}

func ids(h []repo.CommitID) []string {
	out := make([]string, len(h))
	for i, id := range h {
		out[i] = string(id)
	}
	return out
}

// TestBootFromEveryCrashPoint boots from every byte prefix of a journal —
// every point a crash can cut an append — and checks each boot against the
// records the prefix holds whole. A boot from a line's end, from its end
// less the newline and from its middle then takes one more submission and
// must boot again: the torn tail a crash leaves never corrupts the next
// record.
func TestBootFromEveryCrashPoint(t *testing.T) {
	const k = 8
	run := writeCrashRun(t, k)
	lines := journalLines(t, run.journal)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	resubmitAt := map[int]bool{}
	start := 0
	for _, l := range lines {
		resubmitAt[(start+l.end)/2], resubmitAt[l.end], resubmitAt[l.end+1] = true, true, true
		start = l.end + 1
	}
	for n := 0; n <= len(run.journal); n++ {
		committed, rejected, accepted := map[change.ID]bool{}, map[change.ID]bool{}, map[change.ID]bool{}
		for _, l := range lines {
			if l.end > n {
				break
			}
			switch l.kind {
			case store.KindCommit:
				committed[l.id] = true
			case store.KindOutcome:
				rejected[l.id] = true
			case store.KindSubmit:
				accepted[l.id] = true
			}
		}
		if err := os.WriteFile(path, run.journal[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		svc := checkBoot(t, run, path, committed, rejected, accepted)
		if !resubmitAt[n] {
			if err := svc.CloseJournal(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := svc.Submit(mkChange(svc.Repo(), "late", "app/main.go", "app v9")); err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		if err := svc.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		svc2, err := OpenRecovered(newRepo(), path, Config{Workers: 2})
		if err != nil {
			t.Fatalf("prefix %d: reboot after a submission: %v", n, err)
		}
		if st, err := svc2.State("late"); err != nil || st.State != change.StatePending {
			t.Fatalf("prefix %d: late after the reboot = %+v, %v", n, st, err)
		}
		if err := svc2.CloseJournal(); err != nil {
			t.Fatal(err)
		}
	}
	if len(lines) < 2*k {
		t.Fatalf("journal has %d lines, want a submit and a commit per change", len(lines))
	}
}

// TestBootFromEveryFoldWindow folds a journal twice and boots from each
// state a crash inside the second fold can leave: a partial .snap.tmp, the
// old .snap rotated to .prev with no .snap, the new .snap installed with
// the tail not yet truncated, and for a fold of half the tail, the other
// half copied to .tmp but not yet renamed over it. Each boot holds the
// whole run.
func TestBootFromEveryFoldWindow(t *testing.T) {
	run := writeCrashRun(t, 8)
	lines := journalLines(t, run.journal)
	committed, rejected := map[change.ID]bool{}, map[change.ID]bool{}
	for _, l := range lines {
		committed[l.id] = committed[l.id] || l.kind == store.KindCommit
		rejected[l.id] = rejected[l.id] || l.kind == store.KindOutcome
	}
	accepted := map[change.ID]bool{}
	for id := range run.patches {
		accepted[id] = true
	}
	// The first fold covers the journal up to its middle line; the rest is
	// the live tail.
	mid := lines[len(lines)/2].end + 1
	head, tail := run.journal[:mid], run.journal[mid:]
	folded := t.TempDir()
	path := filepath.Join(folded, "journal.jsonl")
	fold := func(path string) {
		t.Helper()
		j, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Snapshot("", keepOutcomes, time.Unix(5000, 0)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, head, 0o644); err != nil {
		t.Fatal(err)
	}
	fold(path)
	if err := os.WriteFile(path, tail, 0o644); err != nil {
		t.Fatal(err)
	}
	snap1, err := os.ReadFile(store.SnapshotPath(path))
	if err != nil {
		t.Fatal(err)
	}
	// The second fold, run to its end in a copy over live, yields the new
	// snapshot.
	foldOver := func(live []byte) []byte {
		t.Helper()
		done := filepath.Join(t.TempDir(), "journal.jsonl")
		for _, f := range []struct {
			path string
			data []byte
		}{{done, live}, {store.SnapshotPath(done), snap1}} {
			if err := os.WriteFile(f.path, f.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fold(done)
		snap, err := os.ReadFile(store.SnapshotPath(done))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snap2 := foldOver(tail)
	// A fold over the tail's first half, the second half appended while it
	// ran: the cut copies that half to .tmp and renames it over the tail.
	tailLines := journalLines(t, tail)
	cut := tailLines[len(tailLines)/2].end + 1
	snap3 := foldOver(tail[:cut])

	windows := []struct {
		name                      string
		live, tmp, cur, old, next []byte // nil: no such file
	}{
		{name: "between folds", live: tail, cur: snap1},
		{name: "partial .snap.tmp", live: tail, tmp: snap2[:len(snap2)/2], cur: snap1},
		{name: ".snap rotated to .prev", live: tail, tmp: snap2, old: snap1},
		{name: ".snap installed, tail not truncated", live: tail, cur: snap2, old: snap1},
		{name: "second fold done", live: []byte{}, cur: snap2, old: snap1},
		{name: "half folded, rest copied, tail not cut", live: tail, cur: snap3, old: snap1, next: tail[cut:]},
		{name: "half folded and cut", live: tail[cut:], cur: snap3, old: snap1},
	}
	for _, w := range windows {
		t.Run(w.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			for suffix, data := range map[string][]byte{"": w.live, ".snap.tmp": w.tmp, ".snap": w.cur, ".snap.prev": w.old, ".tmp": w.next} {
				if data == nil {
					continue
				}
				if err := os.WriteFile(path+suffix, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			svc := checkBoot(t, run, path, committed, rejected, accepted)
			if err := svc.CloseJournal(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestProcessAllSyncsOncePerWave: deciding a wave of 32 changes costs the
// journal one fsync, not one per decision — commit records are buffered as
// they land and the rejections ride the one wait before the decisions
// publish.
func TestProcessAllSyncsOncePerWave(t *testing.T) {
	svc, err := OpenRecovered(newRepo(), filepath.Join(t.TempDir(), "journal.jsonl"), Config{Workers: 4, Runner: rejectBugs})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.CloseJournal()
	for i := 0; i < 32; i++ {
		content := "x"
		if i%8 == 5 {
			content = "bug"
		}
		if err := svc.Submit(mkChange(svc.Repo(), fmt.Sprintf("w%d", i), fmt.Sprintf("gen/f%d.txt", i), content)); err != nil {
			t.Fatal(err)
		}
	}
	before := svc.journal.Load().Syncs()
	if err := svc.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := svc.journal.Load().Syncs() - before; d > 2 {
		t.Fatalf("ProcessAll over a 32-change wave issued %d fsyncs, want at most 2", d)
	}
	states := map[change.State]int{}
	for i := 0; i < 32; i++ {
		st, err := svc.State(change.ID(fmt.Sprintf("w%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		states[st.State]++
	}
	if states[change.StateCommitted] != 28 || states[change.StateRejected] != 4 {
		t.Fatalf("wave decided as %v, want 28 committed and 4 rejected", states)
	}
}

// TestFailedJournalStopsCommits: once the journal fails (here: the disk is
// full), the service lands no commit and publishes no decision, reports the
// failure as ErrJournal on Health, on ProcessAll and on the State of a
// change still pending, and goes on answering the decisions it published
// before.
func TestFailedJournalStopsCommits(t *testing.T) {
	svc, err := OpenRecovered(newRepo(), filepath.Join(t.TempDir(), "journal.jsonl"), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(mkChange(svc.Repo(), "c1", "lib/lib.go", "lib v2")); err != nil {
		t.Fatal(err)
	}
	if err := svc.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	full, err := store.Open("/dev/full") // every flush fails with ENOSPC
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	if err := svc.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	svc.journal.Store(full)
	svc.arb.SetJournal(full)
	defer svc.CloseJournal()

	if err := svc.Submit(mkChange(svc.Repo(), "c2", "doc/readme.md", "doc v2")); !errors.Is(err, ErrJournal) {
		t.Fatalf("Submit on a full disk = %v, want ErrJournal", err)
	}
	if err := svc.ProcessAll(context.Background()); !errors.Is(err, ErrJournal) {
		t.Fatalf("ProcessAll = %v, want ErrJournal", err)
	}
	if err := svc.Health(); !errors.Is(err, ErrJournal) {
		t.Fatalf("Health = %v, want ErrJournal", err)
	}
	if n := svc.Repo().Len(); n != 2 {
		t.Fatalf("mainline = %d commits, want root + c1: c2 must not land", n)
	}
	if st, err := svc.State("c1"); err != nil || st.State != change.StateCommitted {
		t.Fatalf("c1 = %+v, %v: a published commit must still answer", st, err)
	}
	if st, err := svc.State("c2"); !errors.Is(err, ErrJournal) || st.State != change.StatePending {
		t.Fatalf("c2 = %+v, %v: want pending with ErrJournal", st, err)
	}
	if _, err := svc.State("nope"); err == nil || errors.Is(err, ErrJournal) {
		t.Fatalf("unknown change = %v, want an unknown-change error", err)
	}
	if outs := svc.Outcomes(); len(outs) != 1 || outs[0].ID != "c1" {
		t.Fatalf("Outcomes = %+v, want only c1's", outs)
	}
}
