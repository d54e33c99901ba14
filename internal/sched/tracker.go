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
// live service: core notes each admitted submission and each first
// decision, and the API/status path snapshots on demand.
type Tracker struct {
	mu        sync.Mutex
	submitted map[change.ID]submitRecord
	accepted  [nClasses]int64
	pending   [nClasses]int
	committed [nClasses]int64
	rejected  [nClasses]int64
	turnSum   [nClasses]float64
	turnMax   [nClasses]float64
	turnN     [nClasses]int64
}

type submitRecord struct {
	class change.Class
	at    time.Time
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{submitted: make(map[change.ID]submitRecord)}
}

// NoteSubmit records one admitted submission.
func (t *Tracker) NoteSubmit(c *change.Change, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.submitted[c.ID]; dup {
		return
	}
	i := classIndex(c.Class)
	t.submitted[c.ID] = submitRecord{class: c.Class, at: now}
	t.accepted[i]++
	t.pending[i]++
}

// NoteDecision records the first decision for a change. Later duplicate
// decisions (journal replays, shard races) are ignored.
func (t *Tracker) NoteDecision(id change.ID, committed bool, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.submitted[id]
	if !ok {
		return
	}
	delete(t.submitted, id)
	i := classIndex(rec.class)
	t.pending[i]--
	if committed {
		t.committed[i]++
	} else {
		t.rejected[i]++
	}
	turn := at.Sub(rec.at).Seconds()
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
