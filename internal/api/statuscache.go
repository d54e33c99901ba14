// Pre-marshaled status snapshot. GET /api/v1/status aggregates a dozen
// stats calls, each taking the core's locks; at dashboard polling rates
// that contends directly with the planner. The cache renders the full
// StatusResponse once per TTL (or on a periodic refresh in sqd) and serves
// every request in between from the same byte slice — no core locks, no
// marshaling, no allocation on the hot path.
package api

import (
	"sync"
	"sync/atomic"
	"time"

	"mastergreen/internal/clock"
)

// statusTTL is how long a rendered status body is served before the next
// request rebuilds it.
const statusTTL = 250 * time.Millisecond

type statusCache struct {
	clock clock.Clock   // the service's (TTL)
	build func() []byte // renders a fresh status body

	// refreshes is atomic: the build callback itself reads it (the status
	// body reports its own rebuild count) while refresh holds mu.
	refreshes int64

	mu      sync.Mutex
	body    []byte
	expires time.Time
}

func newStatusCache(clk clock.Clock, build func() []byte) *statusCache {
	return &statusCache{clock: clk, build: build}
}

// get returns the current status body, rebuilding if the TTL lapsed. The
// returned slice is shared and must not be mutated.
func (c *statusCache) get() []byte {
	c.mu.Lock()
	if c.body == nil || !c.clock.Now().Before(c.expires) {
		c.refresh()
	}
	b := c.body
	c.mu.Unlock()
	return b
}

// refresh rebuilds the body unconditionally. Callers hold c.mu.
func (c *statusCache) refresh() {
	atomic.AddInt64(&c.refreshes, 1)
	c.body = c.build()
	c.expires = c.clock.Now().Add(statusTTL)
}

// Refresh rebuilds the cached body (background refresher tick).
func (c *statusCache) Refresh() {
	c.mu.Lock()
	c.refresh()
	c.mu.Unlock()
}

// Refreshes returns how many times the body has been rebuilt.
func (c *statusCache) Refreshes() int64 { return atomic.LoadInt64(&c.refreshes) }

// StartStatusRefresher rebuilds the status snapshot every interval (> 0) of
// the service's clock, so request-time rebuilds (and their core locking)
// disappear entirely in steady state. Returns a stop function.
func (s *Server) StartStatusRefresher(interval time.Duration) (stop func()) {
	return every(s.svc.Clock(), interval, s.status.Refresh)
}

// every runs f each d on clk until the returned stop is called. Stop waits
// out a run in progress, so once it returns f is neither running nor due;
// f must not call stop.
func every(clk clock.Clock, d time.Duration, f func()) (stop func()) {
	var mu sync.Mutex
	var t clock.Timer
	stopped := false
	mu.Lock() // t is set before the first run reads it
	defer mu.Unlock()
	t = clk.AfterFunc(d, func() {
		mu.Lock()
		defer mu.Unlock()
		if !stopped {
			f()
			t.Reset(d)
		}
	})
	return func() {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		t.Stop()
	}
}
