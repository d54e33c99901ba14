package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/queue"
	"mastergreen/internal/repo"
	"mastergreen/internal/sched"
	"mastergreen/internal/store"
)

// TestDurableServiceSurvivesRestart: submit changes to a journaled service,
// decide some, "crash", recover into a fresh service booted from the seed,
// and verify the mainline is back, the pending ones complete and past
// outcomes remain queryable.
func TestDurableServiceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")

	svc, err := OpenRecovered(newRepo(), journalPath, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := svc.Repo()

	// c1 is decided before the crash; c2 and c3 are submitted but the
	// process dies before they finish.
	if err := svc.Submit(mkChange(r, "c1", "lib/lib.go", "lib v2")); err != nil {
		t.Fatal(err)
	}
	if err := svc.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(mkChange(r, "c2", "doc/readme.md", "doc v2")); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(mkChange(r, "c3", "app/main.go", "app v2")); err != nil {
		t.Fatal(err)
	}
	// "Crash": close the journal without processing.
	if err := svc.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Restart from the seed: the journal's commit records are the mainline.
	svc2, err := OpenRecovered(newRepo(), journalPath, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2 := svc2.Repo()
	if r2.Head().ID != r.Head().ID {
		t.Fatalf("recovered head %s, want %s", r2.Head().ID, r.Head().ID)
	}
	// c1's outcome survived the restart.
	st, err := svc2.State("c1")
	if err != nil || st.State != change.StateCommitted {
		t.Fatalf("c1 after restart = %+v, %v", st, err)
	}
	// c2 and c3 are pending again and complete normally.
	if svc2.PendingCount() != 2 {
		t.Fatalf("pending after recovery = %d", svc2.PendingCount())
	}
	if err := svc2.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []change.ID{"c2", "c3"} {
		st, err := svc2.State(id)
		if err != nil || st.State != change.StateCommitted {
			t.Fatalf("%s after recovery = %+v, %v", id, st, err)
		}
	}
	if got, _ := r2.Head().Snapshot().Read("doc/readme.md"); got != "doc v2" {
		t.Fatalf("c2 content = %q", got)
	}
}

// TestRecoveredOutcomesNotReJournaled: outcomes restored from the journal
// must not be appended again by the recovered service.
func TestRecoveredOutcomesNotReJournaled(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")

	svc, err := OpenRecovered(newRepo(), journalPath, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(mkChange(svc.Repo(), "c1", "lib/lib.go", "v2")); err != nil {
		t.Fatal(err)
	}
	if err := svc.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = svc.CloseJournal()

	before, _ := store.Replay(journalPath)
	svc2, err := OpenRecovered(newRepo(), journalPath, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = svc2.Tick(context.Background()) // would re-journal if buggy
	after, _ := store.Replay(journalPath)
	if len(after) != len(before) {
		t.Fatalf("journal grew on recovery: %d -> %d", len(before), len(after))
	}
}

// TestRepoSaveLoadRoundTrip: a repository with creates, edits, and deletes
// reloads bit-identically including commit IDs.
func TestRepoSaveLoadRoundTrip(t *testing.T) {
	r := newRepo()
	head := r.Head()
	if _, err := r.CommitPatch(head.ID, mkChange(r, "x", "lib/lib.go", "v2").Patch, "a", "edit lib", head.Time); err != nil {
		t.Fatal(err)
	}
	head = r.Head()
	p := repo.Patch{Changes: []repo.FileChange{
		{Path: "new.txt", Op: repo.OpCreate, NewContent: "n"},
		{Path: "doc/readme.md", Op: repo.OpDelete, BaseHash: repo.HashContent("doc v1")},
	}}
	if _, err := r.CommitPatch(head.ID, p, "b", "add+del", head.Time); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := repo.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r.Len() {
		t.Fatalf("len %d vs %d", r2.Len(), r.Len())
	}
	h1, h2 := r.History(), r2.History()
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("commit %d id mismatch: %s vs %s", i, h1[i], h2[i])
		}
	}
	s1, s2 := r.Head().Snapshot(), r2.Head().Snapshot()
	if s1.Len() != s2.Len() {
		t.Fatalf("snapshot sizes differ")
	}
	for _, pth := range s1.Paths() {
		c1, _ := s1.Read(pth)
		c2, _ := s2.Read(pth)
		if c1 != c2 {
			t.Fatalf("content mismatch at %s", pth)
		}
	}
}

// TestSnapshotJournalRestart: a service that snapshots its journal restarts
// from snapshot + tail with the same state a full-history replay would give —
// decided changes stay decided, pending ones are re-enqueued and complete.
func TestSnapshotJournalRestart(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")

	svc, err := OpenRecovered(newRepo(), journalPath, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := svc.Repo()
	if err := svc.Submit(mkChange(r, "s1", "lib/lib.go", "lib v2")); err != nil {
		t.Fatal(err)
	}
	if err := svc.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(mkChange(r, "s2", "doc/readme.md", "doc v2")); err != nil {
		t.Fatal(err)
	}
	// Snapshot mid-stream: s1's commit and s2's pending submit fold into
	// the snapshot; the live journal is truncated.
	if err := svc.journal.Load().Snapshot(r.Head().ID, 8, time.Unix(3000, 0)); err != nil {
		t.Fatal(err)
	}
	// A post-snapshot submit lands in the tail.
	if err := svc.Submit(mkChange(r, "s3", "app/main.go", "app v2")); err != nil {
		t.Fatal(err)
	}
	if err := svc.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	svc2, err := OpenRecovered(newRepo(), journalPath, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc2.State("s1")
	if err != nil || st.State != change.StateCommitted {
		t.Fatalf("s1 after snapshotted restart = %+v, %v", st, err)
	}
	if svc2.PendingCount() != 2 {
		t.Fatalf("pending after snapshotted recovery = %d, want 2", svc2.PendingCount())
	}
	if err := svc2.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []change.ID{"s2", "s3"} {
		st, err := svc2.State(id)
		if err != nil || st.State != change.StateCommitted {
			t.Fatalf("%s after snapshotted recovery = %+v, %v", id, st, err)
		}
	}
}

// TestSubmitRefusesKnownIDs: Submit refuses an ID the service already knows —
// pending, committed, rejected, or decided before a restart — with an error
// wrapping queue.ErrDuplicate, and the first submission's status stands.
// Builds and decisions are keyed by change ID, so an accepted second change
// under a decided ID used to sit pending forever (ProcessAll never returned)
// or be dropped without a decision.
func TestSubmitRefusesKnownIDs(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	r := newRepo()
	runner := buildsys.RunnerFunc(func(_ context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		if c, _ := snap.Read("doc/readme.md"); strings.Contains(c, "bug") {
			return errors.New("doc lint failed")
		}
		return nil
	})
	cfg := Config{Workers: 2, Runner: runner}
	svc, err := OpenRecovered(r, journalPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*change.Change{
		mkChange(r, "ok", "lib/lib.go", "lib v2"),
		mkChange(r, "bad", "doc/readme.md", "bug"),
	} {
		if err := svc.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(mkChange(r, "open", "app/main.go", "app v2")); err != nil {
		t.Fatal(err)
	}
	want := map[change.ID]change.State{
		"ok": change.StateCommitted, "bad": change.StateRejected, "open": change.StatePending,
	}
	resubmit := func(s *Service, id change.ID) {
		t.Helper()
		err := s.Submit(mkChange(r, string(id), "doc/readme.md", "doc v3"))
		if !errors.Is(err, queue.ErrDuplicate) {
			t.Fatalf("re-submitting %s (%s): err = %v, want queue.ErrDuplicate", id, want[id], err)
		}
		if st, err := s.State(id); err != nil || st.State != want[id] {
			t.Fatalf("%s after re-submission = %+v, %v; want %s", id, st, err, want[id])
		}
	}
	for _, id := range []change.ID{"ok", "bad", "open"} {
		resubmit(svc, id)
	}
	if n := svc.PendingCount(); n != 1 {
		t.Fatalf("pending = %d, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.ProcessAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Every change was journaled exactly once, submission and decision (a
	// commit record or an outcome record).
	recs, err := store.LoadState(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	submits, decisions := map[change.ID]int{}, map[change.ID]int{}
	for _, rec := range recs {
		if rec.Submit != nil {
			submits[rec.Submit.ID]++
		}
		if rec.Outcome != nil {
			decisions[rec.Outcome.ID]++
		}
		if rec.Commit != nil {
			decisions[rec.Commit.ID]++
		}
	}
	for id := range want {
		if submits[id] != 1 || decisions[id] != 1 {
			t.Fatalf("%s journaled %d submits, %d decisions; want 1 and 1", id, submits[id], decisions[id])
		}
	}

	// After a restart the decided IDs are known from the journal alone.
	svc2, err := OpenRecovered(newRepo(), journalPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.CloseJournal()
	want["open"] = change.StateCommitted
	for _, id := range []change.ID{"ok", "bad", "open"} {
		resubmit(svc2, id)
	}
	if n := svc2.PendingCount(); n != 0 {
		t.Fatalf("pending after restart = %d, want 0", n)
	}
}

// TestOpenRecoveredRejectsAnotherSeed: commit records replay only onto the
// seed they were written over; any other seed is a boot error, not a
// mainline that silently differs.
func TestOpenRecoveredRejectsAnotherSeed(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	svc, err := OpenRecovered(newRepo(), journalPath, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(mkChange(svc.Repo(), "c1", "app/main.go", "app v2")); err != nil {
		t.Fatal(err)
	}
	if err := svc.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	other := newRepo()
	if _, err := other.CommitPatch(other.Head().ID, mkChange(other, "x", "doc/readme.md", "doc v9").Patch, "dev", "x", time.Time{}); err != nil {
		t.Fatal(err)
	}
	for name, seed := range map[string]*repo.Repo{
		"different tree": repo.New(map[string]string{"app/main.go": "app v1", "extra": "x"}),
		"longer history": other,
	} {
		if _, err := OpenRecovered(seed, journalPath, Config{Workers: 2}); err == nil {
			t.Errorf("%s: boot succeeded on another seed", name)
		}
	}
	own, err := OpenRecovered(newRepo(), journalPath, Config{Workers: 2})
	if err != nil {
		t.Fatalf("boot on its own seed: %v", err)
	}
	_ = own.CloseJournal()
}

// BenchmarkOpenRecoveredCommits boots a service from a journal whose
// snapshot holds n commit records (a one-file patch each): boot replays
// every commit onto the seed, so its cost grows with history, as loading a
// saved repository does.
func BenchmarkOpenRecoveredCommits(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("commits=%d", n), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "journal.jsonl")
			j, err := store.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			r, at := newRepo(), time.Unix(0, 0).UTC()
			for i := 1; i <= n; i++ {
				p := mkChange(r, "", "lib/lib.go", fmt.Sprintf("lib v%d", i+1)).Patch
				c, err := r.CommitPatch(r.Head().ID, p, "bench", "bench commit", at)
				if err != nil {
					b.Fatal(err)
				}
				j.Buffer(store.Record{Kind: store.KindCommit, Commit: &store.CommitRecord{
					ID: change.ID(fmt.Sprintf("c-%06d", i)), Seq: c.Seq, Commit: c.ID, At: at,
					Author: "bench", Message: "bench commit", Patch: p.Changes, Content: c.Snapshot().ContentID()}})
			}
			if err := j.Snapshot(r.Head().ID, keepOutcomes, at); err != nil {
				b.Fatal(err)
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
			r = nil
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc, err := OpenRecovered(newRepo(), path, Config{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if got := svc.Repo().Len(); got != n+1 {
					b.Fatalf("mainline %d, want %d", got, n+1)
				}
				_ = svc.CloseJournal()
			}
		})
	}
}

// crashWithPending journals c through a durable service on a fresh data
// dir and "crashes" before processing it, returning the journal's path.
func crashWithPending(t *testing.T, cfg Config, c func(*repo.Repo) *change.Change) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	svc, err := OpenRecovered(newRepo(), path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(c(svc.Repo())); err != nil {
		t.Fatal(err)
	}
	if err := svc.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return path
}

// hotfix is a pending P0 change with a deadline and a benefit.
func hotfix(r *repo.Repo) *change.Change {
	c := mkChange(r, "h1", "lib/lib.go", "lib v2")
	c.Class, c.Benefit, c.Deadline = change.ClassHotfix, 5, time.Unix(1_700_000_060, 0).UTC()
	return c
}

// TestRecoveredChangeKeepsLane: a change pending at a crash comes back
// from the journal with its class, deadline and benefit.
func TestRecoveredChangeKeepsLane(t *testing.T) {
	path := crashWithPending(t, Config{Workers: 1}, hotfix)
	svc, err := OpenRecovered(newRepo(), path, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.CloseJournal()
	want := hotfix(newRepo())
	got, err := svc.queue.Get(want.ID)
	if err != nil || got.Class != want.Class || got.Benefit != want.Benefit || !got.Deadline.Equal(want.Deadline) {
		t.Fatalf("recovered %+v (%v), want class %s, benefit %v, deadline %v", got, err, want.Class, want.Benefit, want.Deadline)
	}
}

// TestRecoveredHotfixCountsInP0Lane: with priority lanes, a hotfix pending
// at a crash counts as pending in the P0 lane after the restart.
func TestRecoveredHotfixCountsInP0Lane(t *testing.T) {
	cfg := Config{Workers: 1, Sched: sched.Default()}
	svc, err := OpenRecovered(newRepo(), crashWithPending(t, cfg, hotfix), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.CloseJournal()
	got := map[string]float64{}
	for _, g := range svc.AppendGauges(nil) {
		got[g.Name] = g.Value
	}
	if got["sched_hotfix_pending"] != 1 || got["sched_normal_pending"] != 0 {
		t.Fatalf("pending after the restart: hotfix %v, normal %v; want 1, 0",
			got["sched_hotfix_pending"], got["sched_normal_pending"])
	}
}
