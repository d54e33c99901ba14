package store

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"mastergreen/internal/change"
)

// TestSnapshotRoundTripsPendingSet: replay after a snapshot must recover the
// exact pending set — full change content, not just IDs — that a replay
// before the snapshot would have.
func TestSnapshotRoundTripsPendingSet(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		if err := j.AppendSubmit(mkChange(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "c"} {
		if err := j.AppendOutcome(OutcomeRecord{ID: change.ID(id), State: "committed", At: time.Unix(2000, 0).UTC()}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	pendingBefore, _ := PendingFromRecords(before)

	if err := j.Snapshot("head-1", 10, time.Unix(3000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if n := j.Appends(); n != 0 {
		t.Fatalf("journal not truncated: %d appends recorded", n)
	}
	after, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	pendingAfter, outcomes := PendingFromRecords(after)
	if !reflect.DeepEqual(pendingBefore, pendingAfter) {
		t.Fatalf("pending set did not round-trip through snapshot:\nbefore %+v\nafter  %+v",
			pendingBefore, pendingAfter)
	}
	if len(outcomes) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(outcomes))
	}

	// The journal keeps accepting appends, and the next load folds
	// snapshot + tail.
	if err := j.AppendSubmit(mkChange("f")); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendOutcome(OutcomeRecord{ID: "b", State: "rejected", Reason: "broke", At: time.Unix(4000, 0).UTC()}); err != nil {
		t.Fatal(err)
	}
	_ = j.Close()
	final, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	pendingFinal, _ := PendingFromRecords(final)
	want := []change.ID{"d", "e", "f"}
	if len(pendingFinal) != len(want) {
		t.Fatalf("pending after tail = %+v, want %v", pendingFinal, want)
	}
	for i, c := range pendingFinal {
		if c.ID != want[i] {
			t.Fatalf("pending[%d] = %s, want %s", i, c.ID, want[i])
		}
	}
	head, _, err := ReplaySnapshot(SnapshotPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if head.Head != "head-1" || !head.At.Equal(time.Unix(3000, 0).UTC()) {
		t.Fatalf("snapshot header = %+v", head)
	}
}

// TestSnapshotTornFallsBackToPrevious: a snapshot torn mid-write (fewer
// records than its header promises) must be rejected, and the loader must
// fall back to the previous snapshot plus the live tail with no state loss.
func TestSnapshotTornFallsBackToPrevious(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := j.AppendSubmit(mkChange(id)); err != nil {
			t.Fatal(err)
		}
	}
	// First snapshot: a b c pending.
	if err := j.Snapshot("h1", 10, time.Unix(1000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	// Tail after the first snapshot: d submitted.
	if err := j.AppendSubmit(mkChange("d")); err != nil {
		t.Fatal(err)
	}
	// Second snapshot rotates the first to .snap.prev.
	if err := j.Snapshot("h2", 10, time.Unix(2000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	// Tail after the second snapshot: e submitted.
	if err := j.AppendSubmit(mkChange("e")); err != nil {
		t.Fatal(err)
	}
	_ = j.Close()

	// Tear the current snapshot mid-write: drop its final record.
	snap := SnapshotPath(path)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(data) - 2
	for cut > 0 && data[cut] != '\n' {
		cut--
	}
	if err := os.WriteFile(snap, data[:cut+1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplaySnapshot(snap); err == nil {
		t.Fatal("torn snapshot must fail validation")
	}

	// Fallback: .snap.prev (a b c) + live tail (e). Only records folded
	// exclusively into the torn snapshot (d, submitted between the two
	// snapshots) can be affected — the documented fallback contract is the
	// state as of the previous snapshot plus the current tail.
	recs, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	pending, _ := PendingFromRecords(recs)
	ids := map[change.ID]bool{}
	for _, c := range pending {
		ids[c.ID] = true
	}
	for _, want := range []change.ID{"a", "b", "c", "e"} {
		if !ids[want] {
			t.Fatalf("fallback lost %s: pending = %v", want, ids)
		}
	}
}

// TestSnapshotCrashBeforeTruncateDedups: if the process dies after the
// snapshot rename but before the journal truncation, the tail still holds
// records already folded into the snapshot. Replay must not duplicate
// pending changes or flip decided ones.
func TestSnapshotCrashBeforeTruncateDedups(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := j.AppendSubmit(mkChange(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendOutcome(OutcomeRecord{ID: "a", State: "committed", At: time.Unix(2000, 0).UTC()}); err != nil {
		t.Fatal(err)
	}
	// Save the pre-snapshot journal bytes, snapshot, then restore the bytes:
	// the snapshot and the full tail now coexist, as after a crash between
	// rename and truncate.
	tail, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot("h1", 0, time.Unix(3000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	_ = j.Close()
	if err := os.WriteFile(path, tail, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	pending, outcomes := PendingFromRecords(recs)
	if len(pending) != 1 || pending[0].ID != "b" {
		t.Fatalf("pending = %+v, want exactly [b]", pending)
	}
	// keepOutcomes=0, but a's submit survives in the tail, so its outcome
	// must have been tombstoned into the snapshot: a stays decided.
	if len(outcomes) == 0 {
		t.Fatal("outcome for decided change lost: change would resurrect")
	}
	for _, o := range outcomes {
		if o.ID == "a" && o.State != "committed" {
			t.Fatalf("decision flipped: %+v", o)
		}
	}
}

// TestSnapshotHeaderlessRejected: a file without a SnapHead (e.g. a stray
// plain journal at the .snap path) must not be trusted as a snapshot.
func TestSnapshotHeaderlessRejected(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(SnapshotPath(path))
	if err != nil {
		t.Fatal(err)
	}
	_ = j.AppendSubmit(mkChange("x"))
	_ = j.Close()
	if _, _, err := ReplaySnapshot(SnapshotPath(path)); err == nil {
		t.Fatal("headerless snapshot must fail validation")
	}
}

// TestGroupCommitConcurrentAppends: concurrent appenders must all return
// with their records durable, and the group commit must coalesce their
// fsyncs well below one per append.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.AppendSubmit(mkChange(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// All appends returned => all records durable, before Close.
	recs, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != workers*per {
		t.Fatalf("records = %d, want %d", len(recs), workers*per)
	}
	syncs := j.Syncs()
	if syncs < 1 || syncs > int64(workers*per) {
		t.Fatalf("syncs = %d out of range", syncs)
	}
	t.Logf("group commit: %d appends, %d fsyncs", workers*per, syncs)
	_ = j.Close()
}

// TestSnapshotKeepsRecordsBufferedDuringFold: records buffered while folds
// run outside the lock land in the cut tail, so after a final Sync the
// persisted state holds every one of them, once, in order.
func TestSnapshotKeepsRecordsBufferedDuringFold(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Buffer(Record{Kind: KindSubmit, Submit: mkChange(fmt.Sprintf("w%d-%03d", w, i))})
				if i%50 == 49 {
					if err := j.Sync(); err != nil {
						t.Errorf("sync: %v", err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	folds := 0
	for running := true; running; folds++ {
		select {
		case <-done:
			running = false
		default:
		}
		if err := j.Snapshot("h", 10, time.Unix(int64(folds), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	pending, _ := PendingFromRecords(recs)
	next := make([]int, workers)
	for _, c := range pending {
		var w, i int
		if _, err := fmt.Sscanf(string(c.ID), "w%d-%d", &w, &i); err != nil || i != next[w] {
			t.Fatalf("pending %s out of order (worker %d expects %d)", c.ID, w, next[w])
		}
		next[w]++
	}
	if len(pending) != workers*per {
		t.Fatalf("pending = %d after %d folds, want %d", len(pending), folds, workers*per)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the cut left %s.tmp behind: %v", path, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
