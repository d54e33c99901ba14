package api

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/clock"
)

// TestAdmissionRejectsBeyondCapacity: once the queue holds Capacity pending
// changes, further submissions get 429 + Retry-After while state polls and
// liveness keep working — and nothing already accepted is lost.
func TestAdmissionRejectsBeyondCapacity(t *testing.T) {
	srv, svc := benchService(t)
	srv.EnableAdmission(4)

	for i := 0; i < 4; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/changes",
			strings.NewReader(submitBody(i))))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/changes",
		strings.NewReader(submitBody(99))))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	if n, err := time.ParseDuration(ra + "s"); err != nil || n < time.Second || n > 30*time.Second {
		t.Fatalf("Retry-After = %q, want 1..30 seconds", ra)
	}
	// The refused change was never admitted.
	if svc.PendingCount() != 4 {
		t.Fatalf("pending = %d, want 4", svc.PendingCount())
	}
	// State polls are never shed.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/changes/bench-0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("state poll under overload = %d, want 200", rec.Code)
	}
	// Liveness is never shed.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz under overload = %d, want 200", rec.Code)
	}
	if n := srv.adm.Stats().Rejected; n != 1 {
		t.Fatalf("rejected = %d, want 1", n)
	}
}

// TestOverloadShedsDashboardReads: at ~90% occupancy the status page,
// dashboard, events, and outcomes listings return 503 so the remaining
// capacity serves submissions and state polls.
func TestOverloadShedsDashboardReads(t *testing.T) {
	srv, _ := benchService(t)
	srv.EnableAdmission(4) // shedAt = 3

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/changes",
			strings.NewReader(submitBody(i))))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, rec.Code)
		}
	}
	for _, path := range []string{"/api/v1/status", "/api/v1/outcomes", "/"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s at shed threshold = %d, want 503", path, rec.Code)
		}
	}
	// Submissions are still admitted between shedAt and capacity.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/changes",
		strings.NewReader(submitBody(3))))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit between shed and capacity = %d, want 202", rec.Code)
	}
	if n := srv.adm.Stats().ShedReads; n != 3 {
		t.Fatalf("shed = %d, want 3", n)
	}
}

// TestRetryAfterTracksDrainRate: the Retry-After estimate follows the
// observed decisions-per-second, clamped to [1, 30].
func TestRetryAfterTracksDrainRate(t *testing.T) {
	pending, decided := 10, 0
	m := clock.NewManual(time.Unix(1000, 0))
	a := newAdmission(10, func() int { return pending }, func() int { return decided }, m)

	// No drain observed yet: conservative 30s.
	if retry, ok := a.admitSubmit(); ok || retry != 30 {
		t.Fatalf("first refusal = (%d, %v), want (30, false)", retry, ok)
	}
	// 5 decisions over 2s → 2.5/s; backlog of 1 over capacity → ceil(1/2.5)=1.
	m.Advance(2 * time.Second)
	decided = 5
	if retry, ok := a.admitSubmit(); ok || retry != 1 {
		t.Fatalf("refusal with drain = (%d, %v), want (1, false)", retry, ok)
	}
	// Deep backlog: 31 over capacity at 2.5/s → ceil(31/2.5)=13.
	pending = 40
	if retry, ok := a.admitSubmit(); ok || retry != 13 {
		t.Fatalf("deep-backlog refusal = (%d, %v), want (13, false)", retry, ok)
	}
	// Under capacity admits without touching the estimator.
	pending = 3
	if _, ok := a.admitSubmit(); !ok {
		t.Fatal("under-capacity submit refused")
	}
}

// TestStatusCacheServesStaleWithinTTL: /api/v1/status is rebuilt at most
// once per TTL; between rebuilds every request gets the same pre-marshaled
// bytes without touching the core.
func TestStatusCacheServesStaleWithinTTL(t *testing.T) {
	srv, _, m := manualService(t)

	get := func() string {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/status", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		return rec.Body.String()
	}
	before := get()
	// Mutate service state: a new pending change.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/changes",
		strings.NewReader(submitBody(0))))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	// Within the TTL the snapshot is intentionally stale.
	if got := get(); got != before {
		t.Fatal("status rebuilt within TTL")
	}
	if n := srv.status.Refreshes(); n != 1 {
		t.Fatalf("refreshes = %d, want 1", n)
	}
	// Past the TTL the next request rebuilds and sees the submit.
	m.Advance(time.Second)
	after := get()
	if after == before {
		t.Fatal("status not rebuilt after TTL")
	}
	if !strings.Contains(after, `"pending":1`) {
		t.Fatalf("rebuilt status missing new pending count: %s", after)
	}
}

// TestStatusRefresherRebuildsInBackground: the sqd refresher rebuilds the
// snapshot off the request path once per interval of the service's clock;
// stop() halts it and leaves nothing armed.
func TestStatusRefresherRebuildsInBackground(t *testing.T) {
	srv, _, m := manualService(t)
	stop := srv.StartStatusRefresher(time.Second)
	defer stop()
	m.Advance(999 * time.Millisecond)
	if n := srv.status.Refreshes(); n != 0 {
		t.Fatalf("%d rebuilds before the first interval, want 0", n)
	}
	m.Advance(time.Millisecond)
	if n := srv.status.Refreshes(); n != 1 {
		t.Fatalf("%d rebuilds after one interval, want 1", n)
	}
	m.Advance(2 * time.Second)
	if n := srv.status.Refreshes(); n != 3 {
		t.Fatalf("%d rebuilds after three intervals, want 3", n)
	}
	stop()
	stop() // idempotent
	m.Advance(10 * time.Second)
	if n := srv.status.Refreshes(); n != 3 || m.Armed() != 0 {
		t.Fatalf("after stop: %d rebuilds, %d timers armed; want 3, 0", n, m.Armed())
	}
}
