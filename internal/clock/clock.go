// Package clock is the one source of time for the live service: every layer
// reads the Clock that core.Config.Clock names, Wall in production and
// Manual in tests that must replay. It is the one package that reads the wall.
package clock

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"
)

// Clock tells the time and runs a function once a duration has passed on it.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc call; Stop and Reset report if it was armed.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Wall is real time.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time                            { return time.Now() }
func (wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Sleep waits d on c. It returns ctx.Err() if ctx is done first.
func Sleep(ctx context.Context, c Clock, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	fired := make(chan struct{})
	defer c.AfterFunc(d, func() { close(fired) }).Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-fired:
		return nil
	}
}

// Manual is a clock that moves only on Advance. Its callbacks run one at a
// time on the goroutine that calls Advance, outside its lock.
type Manual struct {
	mu     sync.Mutex
	now    time.Time
	timers []*manualTimer // armed, in firing order
}

type manualTimer struct {
	m  *Manual
	f  func()
	at time.Time
}

// NewManual returns a manual clock that reads start.
func NewManual(start time.Time) *Manual { return &Manual{now: start} }

// Now returns the clock's current instant.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// AfterFunc arms f to run once the clock has advanced d (at least 0) past now.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	t := &manualTimer{m: m, f: f}
	t.Reset(d)
	return t
}

// Armed returns the number of timers waiting to fire.
func (m *Manual) Armed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.timers)
}

// Advance moves the clock d forward and fires the timers due on the way, in
// instant then arming order, each reading the clock at its own instant.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	end := m.now.Add(d)
	for len(m.timers) > 0 && !m.timers[0].at.After(end) {
		t := m.timers[0]
		m.timers, m.now = m.timers[1:], t.at
		m.mu.Unlock()
		t.f()
		m.mu.Lock()
	}
	m.now = end
	m.mu.Unlock()
}

func (t *manualTimer) Stop() bool                 { return t.set(false, 0) }
func (t *manualTimer) Reset(d time.Duration) bool { return t.set(true, d) }

// set disarms t, re-arms it d (at least 0) after now if arm, and reports if it
// was armed. Timers are kept in firing order: by instant, then arming order.
func (t *manualTimer) set(arm bool, d time.Duration) bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	n := len(t.m.timers)
	t.m.timers = slices.DeleteFunc(t.m.timers, func(u *manualTimer) bool { return u == t })
	armed := len(t.m.timers) < n
	if arm {
		t.at = t.m.now.Add(max(d, 0))
		i := sort.Search(len(t.m.timers), func(i int) bool { return t.m.timers[i].at.After(t.at) })
		t.m.timers = slices.Insert(t.m.timers, i, t)
	}
	return armed
}
