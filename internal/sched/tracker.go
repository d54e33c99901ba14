package sched

import (
	"sync"
	"time"

	"mastergreen/internal/change"
)

// nClasses sizes the per-class arrays; classes outside [0, nClasses) clamp
// to ClassNormal.
const nClasses = 3

func classIndex(c change.Class) int {
	if c < 0 || int(c) >= nClasses {
		return int(change.ClassNormal)
	}
	return int(c)
}

// ClassStats is one lane's live gauges.
type ClassStats struct {
	Accepted  int64 // submissions admitted into the queue
	Pending   int   // currently undecided
	Committed int64
	Rejected  int64
	// Turnaround gauges over decided changes (submit → first decision).
	TurnaroundMeanSec float64
	TurnaroundMaxSec  float64
}

// Stats is a point-in-time snapshot of every lane, in severity order.
type Stats struct {
	Hotfix, Normal, Bulk ClassStats
}

// lane returns the snapshot slot of one lane.
func (s *Stats) lane(c change.Class) *ClassStats {
	switch c {
	case change.ClassHotfix:
		return &s.Hotfix
	case change.ClassBulk:
		return &s.Bulk
	}
	return &s.Normal
}

// Tracker accumulates per-class queue-depth and turnaround gauges for the
// live service: core notes each admitted submission once and its decision
// once, passing the change it holds pending, and the API/status path
// snapshots on demand.
type Tracker struct {
	mu        sync.Mutex
	accepted  [nClasses]int64
	pending   [nClasses]int
	committed [nClasses]int64
	rejected  [nClasses]int64
	turnSum   [nClasses]float64
	turnMax   [nClasses]float64
	turnN     [nClasses]int64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// NoteSubmit records one admitted submission in c's lane.
func (t *Tracker) NoteSubmit(c *change.Change) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := classIndex(c.Class)
	t.accepted[i]++
	t.pending[i]++
}

// NoteDecision records the decision, at at, of a change NoteSubmit counted:
// its lane and its turnaround since c.SubmittedAt.
func (t *Tracker) NoteDecision(c *change.Change, committed bool, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := classIndex(c.Class)
	t.pending[i]--
	if committed {
		t.committed[i]++
	} else {
		t.rejected[i]++
	}
	turn := at.Sub(c.SubmittedAt).Seconds()
	if turn < 0 {
		turn = 0
	}
	t.turnSum[i] += turn
	t.turnN[i]++
	if turn > t.turnMax[i] {
		t.turnMax[i] = turn
	}
}

// Snapshot returns the current gauges.
func (t *Tracker) Snapshot() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s Stats
	for i := 0; i < nClasses; i++ {
		cs := s.lane(change.Class(i))
		*cs = ClassStats{
			Accepted:         t.accepted[i],
			Pending:          t.pending[i],
			Committed:        t.committed[i],
			Rejected:         t.rejected[i],
			TurnaroundMaxSec: t.turnMax[i],
		}
		if t.turnN[i] > 0 {
			cs.TurnaroundMeanSec = t.turnSum[i] / float64(t.turnN[i])
		}
	}
	return s
}
