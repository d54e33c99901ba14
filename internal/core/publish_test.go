package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/events"
	"mastergreen/internal/store"
)

// awaitEvent returns the first event on ch of type typ for change id, or
// fails the test after 10 s.
func awaitEvent(t *testing.T, ch <-chan events.Event, typ events.Type, id change.ID) events.Event {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case ev := <-ch:
			if ev.Type == typ && ev.Change == id {
				return ev
			}
		case <-timeout:
			t.Fatalf("no %s event for %s", typ, id)
		}
	}
}

// TestDecisionEventImpliesDurable: a running durable service that nothing
// reads from emits a decision event only once the decision's record is
// durable. A copy of the journal taken when c1's committed event arrives —
// what kill -9 would leave — boots with c1 committed; and on a journal that
// cannot sync, a rejected change never gets its rejected event.
func TestDecisionEventImpliesDurable(t *testing.T) {
	t.Run("committed", func(t *testing.T) {
		dir := t.TempDir()
		bus := events.NewBus(256)
		feed, unsubscribe := bus.Subscribe(256)
		defer unsubscribe()
		svc, err := OpenRecovered(newRepo(), filepath.Join(dir, "journal.jsonl"), Config{Workers: 2, Events: bus})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.CloseJournal()
		svc.Start()
		defer svc.Stop()
		if err := svc.Submit(mkChange(svc.Repo(), "c1", "lib/lib.go", "lib v2")); err != nil {
			t.Fatal(err)
		}
		ev := awaitEvent(t, feed, events.TypeCommitted, "c1")
		journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		crashed := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(crashed, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		reboot, err := OpenRecovered(newRepo(), crashed, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer reboot.CloseJournal()
		if st, err := reboot.State("c1"); err != nil || st.State != change.StateCommitted || string(st.Commit) != ev.Detail {
			t.Fatalf("after the committed event (%s) the reboot has c1 = %+v, %v", ev.Detail, st, err)
		}
	})
	t.Run("rejected", func(t *testing.T) {
		bus := events.NewBus(256)
		svc, err := OpenRecovered(newRepo(), filepath.Join(t.TempDir(), "journal.jsonl"), Config{Workers: 2, Events: bus, Runner: rejectBugs})
		if err != nil {
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
		svc.Start()
		if err := svc.Submit(mkChange(svc.Repo(), "bad", "lib/lib.go", "bug")); !errors.Is(err, ErrJournal) {
			t.Fatalf("Submit on a full disk = %v, want ErrJournal", err)
		}
		waitUntil(t, "the engines to decide bad", func() bool { return svc.runtime.PendingCount() == 0 })
		svc.Stop()
		for _, ev := range bus.Since(0) {
			if ev.Change == "bad" && (ev.Type == events.TypeRejected || ev.Type == events.TypeCommitted) {
				t.Fatalf("a journal that cannot sync still announced %+v", ev)
			}
		}
		if st, err := svc.State("bad"); !errors.Is(err, ErrJournal) || st.State != change.StatePending {
			t.Fatalf("bad = %+v, %v: want pending with ErrJournal", st, err)
		}
	})
}

// TestReadersDoNotPublish: once the engines have merged a decision, reading
// the service — State and Outcomes, many times — issues no fsync and
// publishes nothing; the decision stays unpublished until its writer runs.
func TestReadersDoNotPublish(t *testing.T) {
	svc, err := OpenRecovered(newRepo(), filepath.Join(t.TempDir(), "journal.jsonl"), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.CloseJournal()
	if err := svc.Submit(mkChange(svc.Repo(), "c1", "lib/lib.go", "lib v2")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	waitUntil(t, "the engines to decide c1", func() bool {
		if _, err := svc.runtime.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		return svc.runtime.PendingCount() == 0
	})
	syncs := svc.journal.Load().Syncs()
	for i := 0; i < 100; i++ {
		if st, err := svc.State("c1"); err != nil || st.State != change.StatePending {
			t.Fatalf("read %d: c1 = %+v, %v; want it pending until published", i, st, err)
		}
		if outs := svc.Outcomes(); len(outs) != 0 {
			t.Fatalf("read %d: Outcomes = %+v before any publish", i, outs)
		}
	}
	if d := svc.journal.Load().Syncs() - syncs; d != 0 {
		t.Fatalf("reads issued %d fsyncs", d)
	}
	if err := svc.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if st, err := svc.State("c1"); err != nil || st.State != change.StateCommitted {
		t.Fatalf("after Tick publishes, c1 = %+v, %v", st, err)
	}
}
