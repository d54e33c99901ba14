// Pre-marshaled status snapshot. GET /api/v1/status aggregates a dozen
// stats calls, each taking the core's locks; at dashboard polling rates
// that contends directly with the planner. The cache renders the full
// StatusResponse once per TTL (or on a background ticker in sqd) and serves
// every request in between from the same byte slice — no core locks, no
// marshaling, no allocation on the hot path.
package api

import (
	"sync"
	"sync/atomic"
	"time"
)

// statusTTL is how long a rendered status body is served before the next
// request rebuilds it.
const statusTTL = 250 * time.Millisecond

type statusCache struct {
	now   func() time.Time // injected clock (wallclock policy)
	build func() []byte    // renders a fresh status body

	// refreshes is atomic: the build callback itself reads it (the status
	// body reports its own rebuild count) while refresh holds mu.
	refreshes int64

	mu      sync.Mutex
	body    []byte
	expires time.Time
}

func newStatusCache(now func() time.Time, build func() []byte) *statusCache {
	return &statusCache{now: now, build: build}
}

// get returns the current status body, rebuilding if the TTL lapsed. The
// returned slice is shared and must not be mutated.
func (c *statusCache) get() []byte {
	c.mu.Lock()
	if c.body == nil || !c.now().Before(c.expires) {
		c.refresh()
	}
	b := c.body
	c.mu.Unlock()
	return b
}

// refresh rebuilds the body unconditionally. Callers hold c.mu or are the
// ticker goroutine via Refresh.
func (c *statusCache) refresh() {
	atomic.AddInt64(&c.refreshes, 1)
	c.body = c.build()
	c.expires = c.now().Add(statusTTL)
}

// Refresh rebuilds the cached body (background refresher tick).
func (c *statusCache) Refresh() {
	c.mu.Lock()
	c.refresh()
	c.mu.Unlock()
}

// Refreshes returns how many times the body has been rebuilt.
func (c *statusCache) Refreshes() int64 { return atomic.LoadInt64(&c.refreshes) }

// StartStatusRefresher rebuilds the status snapshot every interval (> 0) on
// a background goroutine, so request-time rebuilds (and their core locking)
// disappear entirely in steady state. Returns a stop function.
func (s *Server) StartStatusRefresher(interval time.Duration) (stop func()) {
	t := time.NewTicker(interval)
	done := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			select {
			case <-t.C:
				s.status.Refresh()
			case <-done:
				t.Stop()
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
