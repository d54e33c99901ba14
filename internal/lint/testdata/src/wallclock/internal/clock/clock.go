// Package clock stands in for the service's clock package: Wall is the
// value the wallclock analyzer flags wherever it is referenced.
package clock

import "time"

// Clock is the injected clock.
type Clock interface {
	Now() time.Time
}

type wall struct{}

func (wall) Now() time.Time { return time.Time{} }

// Wall stands in for the wall clock.
var Wall Clock = wall{}
