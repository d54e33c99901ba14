// Package wallclock exercises the wallclock analyzer: every use of the wall
// clock, read or wait, called or referenced, from package time or as
// clock.Wall, is a finding; time from an injected clock and methods of time
// values are not.
package wallclock

import (
	"time"

	"fixture/internal/clock"
)

// Clock is the injected clock.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) *time.Timer
}

// Bad reads the wall clock directly.
func Bad() (time.Time, time.Duration) {
	start := time.Now()          // want wallclock
	elapsed := time.Since(start) // want wallclock
	_ = time.Until(start)        // want wallclock
	return start, elapsed
}

// BadWaits waits on the wall clock.
func BadWaits(f func()) {
	time.Sleep(time.Millisecond)        // want wallclock
	<-time.After(time.Millisecond)      // want wallclock
	_ = time.Tick(time.Millisecond)     // want wallclock
	time.AfterFunc(time.Millisecond, f) // want wallclock
	t := time.NewTimer(time.Second)     // want wallclock
	t.Stop()
	tk := time.NewTicker(time.Second) // want wallclock
	tk.Stop()
}

// BadReference hands the wall clock on without calling it.
func BadReference() any {
	return time.Now // want wallclock
}

// BadWall picks the wall clock instead of taking the injected one.
func BadWall() clock.Clock {
	return clock.Wall // want wallclock
}

// Good takes time from the injected clock; comparing, adding and measuring
// time values reads no clock.
func Good(c Clock, f func()) bool {
	now := c.Now()
	c.AfterFunc(time.Second, f)
	return now.Add(time.Minute).After(now) && time.Duration(0) < time.Second
}
