package events

import (
	"testing"
	"time"

	"mastergreen/internal/clock"
)

func TestPublishAssignsSequence(t *testing.T) {
	b := NewBus(16)
	e1 := b.Publish(Event{Type: TypeSubmitted, Change: "c1"})
	e2 := b.Publish(Event{Type: TypeCommitted, Change: "c1"})
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("seqs = %d, %d", e1.Seq, e2.Seq)
	}
	if e1.At.IsZero() {
		t.Fatal("timestamp not assigned")
	}
	if b.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d", b.LastSeq())
	}
}

func TestSince(t *testing.T) {
	b := NewBus(16)
	for i := 0; i < 5; i++ {
		b.Publish(Event{Type: TypeSubmitted})
	}
	got := b.Since(2)
	if len(got) != 3 || got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("Since(2) = %v", got)
	}
	if len(b.Since(99)) != 0 {
		t.Fatal("Since beyond end should be empty")
	}
}

func TestRingEviction(t *testing.T) {
	b := NewBus(16) // min capacity
	for i := 0; i < 40; i++ {
		b.Publish(Event{Type: TypeSubmitted})
	}
	got := b.Since(0)
	if len(got) != 16 {
		t.Fatalf("retained = %d, want 16", len(got))
	}
	if got[0].Seq != 25 || got[15].Seq != 40 {
		t.Fatalf("window = [%d, %d]", got[0].Seq, got[15].Seq)
	}
}

func TestSubscribeReceivesLiveEvents(t *testing.T) {
	b := NewBus(16)
	ch, cancel := b.Subscribe(8)
	defer cancel()
	b.Publish(Event{Type: TypeBuildStarted, Build: "b1"})
	select {
	case ev := <-ch:
		if ev.Type != TypeBuildStarted || ev.Build != "b1" {
			t.Fatalf("ev = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no event delivered")
	}
}

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBus(16)
	ch, cancel := b.Subscribe(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			b.Publish(Event{Type: TypeSubmitted})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("publisher blocked on slow subscriber")
	}
	// The single buffered event is still deliverable.
	if ev := <-ch; ev.Seq == 0 {
		t.Fatal("no event buffered")
	}
}

func TestCancelIdempotent(t *testing.T) {
	b := NewBus(16)
	_, cancel := b.Subscribe(1)
	cancel()
	cancel() // no panic
	b.Publish(Event{Type: TypeSubmitted})
}

// TestSetClock: the bus stamps an event that carries no time from its clock,
// and keeps the time of one that does.
func TestSetClock(t *testing.T) {
	b := NewBus(16)
	m := clock.NewManual(time.Unix(42, 0))
	b.SetClock(m)
	if ev := b.Publish(Event{Type: TypeSubmitted}); !ev.At.Equal(time.Unix(42, 0)) {
		t.Fatalf("At = %v, want the clock's", ev.At)
	}
	m.Advance(time.Second)
	if ev := b.Publish(Event{Type: TypeSubmitted}); !ev.At.Equal(time.Unix(43, 0)) {
		t.Fatalf("At = %v after Advance, want the clock's", ev.At)
	}
	if ev := b.Publish(Event{Type: TypeSubmitted, At: time.Unix(7, 0)}); !ev.At.Equal(time.Unix(7, 0)) {
		t.Fatalf("At = %v, want the event's own", ev.At)
	}
}

// TestStalledSubscriberNeverBlocksPublish: a subscriber that never drains
// must not stall Publish. Every overflowed send is shed, counted against the
// subscriber, and surfaced through Stats.
func TestStalledSubscriberNeverBlocksPublish(t *testing.T) {
	b := NewBus(16)
	stalled, cancelStalled := b.Subscribe(2) // fills after 2 events, never drained
	defer cancelStalled()
	healthy, cancelHealthy := b.Subscribe(64)
	defer cancelHealthy()

	const n = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			b.Publish(Event{Type: TypeSubmitted})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a stalled subscriber")
	}

	if got := len(healthy); got != n {
		t.Fatalf("healthy subscriber saw %d events, want %d", got, n)
	}
	st := b.Stats()
	if st.Published != n {
		t.Fatalf("Published = %d, want %d", st.Published, n)
	}
	if want := int64(n - 2); st.Dropped != want {
		t.Fatalf("Dropped = %d, want %d (stalled buffer holds 2)", st.Dropped, want)
	}
	if st.Subscribers != 2 || st.SlowSubscribers != 1 {
		t.Fatalf("Subscribers = %d SlowSubscribers = %d, want 2 and 1", st.Subscribers, st.SlowSubscribers)
	}
	// The stalled subscriber still holds the first events it had room for.
	if ev := <-stalled; ev.Seq != 1 {
		t.Fatalf("stalled subscriber's first buffered event Seq = %d", ev.Seq)
	}
}
