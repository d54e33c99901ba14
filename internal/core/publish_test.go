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
	"mastergreen/internal/planner"
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
// durable. A copy of the journal taken when c1's committed event arrives,
// or when a follower waiting on the decision log (NextDecision) reads it —
// what kill -9 would leave — boots with c1 committed; and on a journal that
// cannot sync, a rejected change never gets its rejected event.
func TestDecisionEventImpliesDurable(t *testing.T) {
	t.Run("committed", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.jsonl")
		bus := events.NewBus(256)
		feed, unsubscribe := bus.Subscribe(256)
		defer unsubscribe()
		svc, err := OpenRecovered(newRepo(), path, Config{Workers: 2, Events: bus})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.CloseJournal()
		svc.Start()
		defer svc.Stop()
		// A follower of the decision log copies the journal the moment the
		// first decision is there to read.
		type copied struct {
			o       planner.Outcome
			journal []byte
			err     error
		}
		followed := make(chan copied, 1)
		next := svc.NextDecision()
		go func() {
			<-next
			c := copied{o: svc.OutcomesAfter(0, 1)[0]}
			c.journal, c.err = os.ReadFile(path)
			followed <- c
		}()
		if err := svc.Submit(mkChange(svc.Repo(), "c1", "lib/lib.go", "lib v2")); err != nil {
			t.Fatal(err)
		}
		ev := awaitEvent(t, feed, events.TypeCommitted, "c1")
		journal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f := <-followed
		if f.err != nil {
			t.Fatal(f.err)
		}
		if f.o.ID != "c1" || string(f.o.Commit) != ev.Detail {
			t.Fatalf("the follower read %+v, the event names %s", f.o, ev.Detail)
		}
		for who, journal := range map[string][]byte{"event": journal, "follower": f.journal} {
			crashed := filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(crashed, journal, 0o644); err != nil {
				t.Fatal(err)
			}
			reboot, err := OpenRecovered(newRepo(), crashed, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			st, err := reboot.State("c1")
			_ = reboot.CloseJournal()
			if err != nil || st.State != change.StateCommitted || string(st.Commit) != ev.Detail {
				t.Fatalf("after the %s saw c1 committed (%s) the reboot has c1 = %+v, %v", who, ev.Detail, st, err)
			}
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
		waitUntil(t, "the engine to decide bad", func() bool { return svc.runtime.PendingCount() == 0 })
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

// TestReadersDoNotPublish: once the engine has merged a decision, reading
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
	waitUntil(t, "the engine to decide c1", func() bool {
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
