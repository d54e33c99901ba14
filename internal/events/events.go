// Package events is SubmitQueue's observability spine: a bounded in-memory
// event bus that the planner publishes lifecycle events to (submissions,
// build starts/finishes/aborts, commits, rejections). The paper's deployment
// streams equivalent events through RxJava to its web UI (§7.1); here the
// bus backs the HTTP API's polling endpoint and the sqd status page.
package events

import (
	"sync"
	"sync/atomic"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/clock"
)

// Type classifies an event.
type Type string

// Event types.
const (
	TypeSubmitted     Type = "submitted"
	TypeBuildStarted  Type = "build-started"
	TypeBuildFinished Type = "build-finished"
	TypeBuildAborted  Type = "build-aborted"
	TypeCommitted     Type = "committed"
	TypeRejected      Type = "rejected"

	// Conflict-analyzer lifecycle events: an analysis was computed fresh,
	// re-homed across a head move without recomputation, or dropped by the
	// selective-invalidation rule.
	TypeAnalysisStarted     Type = "analysis-started"
	TypeAnalysisReused      Type = "analysis-reused"
	TypeAnalysisInvalidated Type = "analysis-invalidated"

	// Reliability-layer events (DESIGN.md §4g): a step-unit was proven flaky
	// (fail then pass on identical inputs), a failed suspect build was given
	// a verification re-run, and a verification re-run passed — averting a
	// false rejection.
	TypeFlakyDetected    Type = "flaky-detected"
	TypeBuildRetried     Type = "build-retried"
	TypeRejectionAverted Type = "rejection-averted"

	// Shard-layer event (DESIGN.md §4h): the commit arbiter advanced the
	// mainline head.
	TypeHeadAdvanced Type = "head-advanced"
)

// Event is one lifecycle occurrence.
type Event struct {
	Seq    int64     `json:"seq"`
	At     time.Time `json:"at"`
	Type   Type      `json:"type"`
	Change change.ID `json:"change,omitempty"`
	Build  string    `json:"build,omitempty"` // build key, for build events
	Detail string    `json:"detail,omitempty"`
}

// Bus is a bounded ring of recent events plus live subscriptions. The zero
// value is not usable; call NewBus.
type Bus struct {
	mu      sync.Mutex
	ring    []Event
	start   int // index of oldest
	count   int
	nextSeq int64
	subs    map[int]*subscriber
	nextSub int
	clock   clock.Clock // stamps events that carry no time

	// dropped counts fan-out sends discarded because a subscriber's buffer
	// was full. Atomic: incremented outside mu on the publish fast path.
	dropped int64
}

// subscriber is one live subscription plus its drop count.
type subscriber struct {
	ch      chan Event
	dropped int64 // atomic
}

// Stats is a point-in-time summary of bus health: how much was published,
// how much fan-out was shed, and how many subscribers are falling behind.
type Stats struct {
	// Published is the total number of events published on this bus.
	Published int64
	// Dropped is the total number of per-subscriber sends discarded because
	// the subscriber's buffer was full. One published event fanned out to k
	// stalled subscribers counts k drops.
	Dropped int64
	// Subscribers is the current number of live subscriptions.
	Subscribers int
	// SlowSubscribers is how many current subscribers have dropped at least
	// one event — the ones a dashboard should call out.
	SlowSubscribers int
}

// NewBus creates a bus retaining the most recent capacity events (min 16).
func NewBus(capacity int) *Bus {
	if capacity < 16 {
		capacity = 16
	}
	return &Bus{
		ring:  make([]Event, capacity),
		subs:  map[int]*subscriber{},
		clock: clock.Wall, //lint:ignore wallclock the default until core.NewService sets the service's clock
	}
}

// SetClock sets the clock that stamps events (clock.Wall by default);
// core.NewService sets the service's on the bus it is handed.
func (b *Bus) SetClock(clk clock.Clock) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clock = clk
}

// Publish stamps and stores the event, then fans it out to subscribers.
// Slow subscribers are skipped rather than blocking the planner.
func (b *Bus) Publish(ev Event) Event {
	b.mu.Lock()
	b.nextSeq++
	ev.Seq = b.nextSeq
	if ev.At.IsZero() {
		ev.At = b.clock.Now()
	}
	idx := (b.start + b.count) % len(b.ring)
	if b.count == len(b.ring) {
		b.start = (b.start + 1) % len(b.ring)
	} else {
		b.count++
	}
	b.ring[idx] = ev
	subs := make([]*subscriber, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()
	for _, s := range subs {
		select {
		case s.ch <- ev:
		default:
			// Drop rather than block: a stalled consumer must never stall
			// the planner. The shed send is counted so /status can surface
			// the slow subscriber instead of hiding the loss.
			atomic.AddInt64(&s.dropped, 1)
			atomic.AddInt64(&b.dropped, 1)
		}
	}
	return ev
}

// Stats returns current bus health counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Stats{
		Published:   b.nextSeq,
		Dropped:     atomic.LoadInt64(&b.dropped),
		Subscribers: len(b.subs),
	}
	for _, s := range b.subs {
		if atomic.LoadInt64(&s.dropped) > 0 {
			st.SlowSubscribers++
		}
	}
	return st
}

// Since returns retained events with Seq > seq, oldest first.
func (b *Bus) Since(seq int64) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for i := 0; i < b.count; i++ {
		ev := b.ring[(b.start+i)%len(b.ring)]
		if ev.Seq > seq {
			out = append(out, ev)
		}
	}
	return out
}

// LastSeq returns the sequence number of the newest event (0 if none).
func (b *Bus) LastSeq() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextSeq
}

// Subscribe returns a live channel of future events and a cancel function.
// The channel buffers up to buffer events; overflow is dropped.
func (b *Bus) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer < 1 {
		buffer = 1
	}
	s := &subscriber{ch: make(chan Event, buffer)}
	b.mu.Lock()
	id := b.nextSub
	b.nextSub++
	b.subs[id] = s
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		if _, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(s.ch)
		}
		b.mu.Unlock()
	}
	return s.ch, cancel
}
