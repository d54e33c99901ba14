package clock

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

var t0 = time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)

// TestManualFiresInInstantOrder: Advance fires the timers due on the way in
// instant order, ties in arming order, each reading the clock at its own
// instant; a timer armed by a callback that falls due in the same Advance
// fires in it, and one that does not stays armed.
func TestManualFiresInInstantOrder(t *testing.T) {
	m := NewManual(t0)
	var got []string
	note := func(name string) func() {
		return func() { got = append(got, name+"@"+m.Now().Sub(t0).String()) }
	}
	m.AfterFunc(3*time.Second, note("c"))
	m.AfterFunc(time.Second, note("a"))
	m.AfterFunc(time.Second, note("b"))
	m.AfterFunc(time.Second, func() {
		note("d")()
		m.AfterFunc(time.Second, note("e"))    // due at 2s: fires now
		m.AfterFunc(10*time.Second, note("f")) // due at 11s: stays armed
	})
	if m.Armed() != 4 {
		t.Fatalf("Armed() = %d, want 4", m.Armed())
	}
	m.Advance(5 * time.Second)
	want := []string{"a@1s", "b@1s", "d@1s", "e@2s", "c@3s"}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if now := m.Now(); !now.Equal(t0.Add(5 * time.Second)) {
		t.Fatalf("Now() = %v after Advance(5s), want %v", now, t0.Add(5*time.Second))
	}
	if m.Armed() != 1 {
		t.Fatalf("Armed() = %d after Advance, want 1 (f)", m.Armed())
	}
}

// TestManualStopReset: Stop and Reset report whether the timer was armed,
// as time.Timer's do; Reset re-arms from the current instant, and a stopped
// timer never fires.
func TestManualStopReset(t *testing.T) {
	m := NewManual(t0)
	fired := 0
	tm := m.AfterFunc(time.Second, func() { fired++ })
	if !tm.Stop() || tm.Stop() {
		t.Fatal("Stop: want true for an armed timer, then false")
	}
	m.Advance(2 * time.Second)
	if fired != 0 || m.Armed() != 0 {
		t.Fatalf("stopped timer: fired %d, %d armed", fired, m.Armed())
	}
	if tm.Reset(time.Second) {
		t.Fatal("Reset of a stopped timer reported it armed")
	}
	if !tm.Reset(2 * time.Second) {
		t.Fatal("Reset of an armed timer reported it disarmed")
	}
	m.Advance(time.Second)
	if fired != 0 {
		t.Fatal("Reset timer fired at its old instant")
	}
	m.Advance(time.Second)
	if fired != 1 || m.Armed() != 0 {
		t.Fatalf("fired %d, %d armed; want 1, 0", fired, m.Armed())
	}
}

// TestSleep: Sleep returns once the clock has moved d, or with the context's
// error when it is done first, leaving no timer armed either way.
func TestSleep(t *testing.T) {
	m := NewManual(t0)
	done := make(chan error, 1)
	go func() { done <- Sleep(context.Background(), m, time.Minute) }()
	for m.Armed() == 0 {
		time.Sleep(time.Millisecond)
	}
	m.Advance(time.Minute)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- Sleep(ctx, m, time.Minute) }()
	for m.Armed() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep after cancel = %v, want context.Canceled", err)
	}
	if m.Armed() != 0 {
		t.Fatalf("%d timers armed after a cancelled Sleep", m.Armed())
	}
	if err := Sleep(context.Background(), m, 0); err != nil {
		t.Fatal(err)
	}
	if err := Sleep(context.Background(), Wall, time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
