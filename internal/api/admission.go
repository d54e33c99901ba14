// Bounded admission and overload degradation for the serving path. The
// pending queue is the admission queue: once it holds Capacity undecided
// changes, new submissions are refused with 429 and a Retry-After computed
// from the observed drain rate, and once occupancy crosses the shed
// threshold, dashboard-class reads (status page, events, outcomes listing)
// are refused with 503 so the remaining capacity serves submissions and
// state polls. Accepted submissions are never dropped: admission happens
// before the journal append, so everything acked durable stays queued.
package api

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mastergreen/internal/clock"
)

// admission tracks queue occupancy against a fixed capacity and estimates
// the drain rate from outcome-count deltas.
type admission struct {
	capacity int
	// shedAt is the occupancy at which read shedding starts (~90% of
	// capacity, always below capacity so shedding precedes refusal).
	shedAt  int
	pending func() int  // current queue occupancy
	decided func() int  // total outcomes so far (drain-rate samples)
	clock   clock.Clock // the service's (drain-rate sampling)

	rejected int64 // 429s issued (atomic)
	shed     int64 // 503s issued (atomic)

	mu          sync.Mutex
	lastAt      time.Time
	lastDecided int
	ratePerSec  float64
}

func newAdmission(capacity int, pending, decided func() int, clk clock.Clock) *admission {
	shedAt := capacity * 9 / 10
	if shedAt < 1 {
		shedAt = 1
	}
	if shedAt >= capacity {
		shedAt = capacity - 1
	}
	if shedAt < 1 {
		shedAt = 1
	}
	return &admission{
		capacity: capacity,
		shedAt:   shedAt,
		pending:  pending,
		decided:  decided,
		clock:    clk,
	}
}

// admitSubmit reports whether a submission may enter. When refused, it
// returns the Retry-After seconds derived from the backlog over capacity
// and the observed drain rate, clamped to [1, 30]. The under-capacity fast
// path is a single occupancy read and a compare — no locks, no allocation.
func (a *admission) admitSubmit() (retryAfter int, ok bool) {
	p := a.pending()
	if p < a.capacity {
		return 0, true
	}
	atomic.AddInt64(&a.rejected, 1)
	rate := a.sampleRate()
	excess := float64(p - a.capacity + 1)
	retry := 30
	if rate > 0 {
		retry = int(math.Ceil(excess / rate))
	}
	if retry < 1 {
		retry = 1
	}
	if retry > 30 {
		retry = 30
	}
	return retry, false
}

// sampleRate refreshes the drain-rate estimate at most once per second and
// returns the current estimate (decisions per second).
func (a *admission) sampleRate() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	nowT := a.clock.Now()
	if a.lastAt.IsZero() {
		a.lastAt = nowT
		a.lastDecided = a.decided()
		return a.ratePerSec
	}
	if dt := nowT.Sub(a.lastAt); dt >= time.Second {
		d := a.decided()
		a.ratePerSec = float64(d-a.lastDecided) / dt.Seconds()
		a.lastAt = nowT
		a.lastDecided = d
	}
	return a.ratePerSec
}

// overloaded reports whether dashboard-class reads should be shed.
func (a *admission) overloaded() bool { return a.pending() >= a.shedAt }

// countShed records one shed read.
func (a *admission) countShed() { atomic.AddInt64(&a.shed, 1) }

// AdmissionStats is a point-in-time reading of submit admission: the
// capacity, current occupancy, submissions refused with 429, reads shed with
// 503 and the drain-rate estimate (decisions per second).
type AdmissionStats struct {
	Capacity    int
	Queued      int
	Rejected    int64
	ShedReads   int64
	DrainPerSec float64
}

// Stats returns the current admission counters.
func (a *admission) Stats() AdmissionStats {
	a.mu.Lock()
	rate := a.ratePerSec
	a.mu.Unlock()
	return AdmissionStats{
		Capacity:    a.capacity,
		Queued:      a.pending(),
		Rejected:    atomic.LoadInt64(&a.rejected),
		ShedReads:   atomic.LoadInt64(&a.shed),
		DrainPerSec: rate,
	}
}

// EnableAdmission bounds the submit queue at capacity pending changes
// (429 + Retry-After beyond it) and sheds dashboard-class reads with 503
// once occupancy reaches ~90% of capacity. State polls, health checks, and
// already-accepted submissions are never shed. Call before serving.
func (s *Server) EnableAdmission(capacity int) {
	if capacity < 2 {
		capacity = 2
	}
	s.adm = newAdmission(capacity, s.svc.PendingCount, s.svc.OutcomeCount, s.svc.Clock())
}

// itoaSmall renders small non-negative ints without allocating for the
// common single-digit Retry-After values.
func itoaSmall(n int) string {
	if n >= 0 && n < len(smallInts) {
		return smallInts[n]
	}
	return strconv.Itoa(n)
}

var smallInts = [...]string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"}
