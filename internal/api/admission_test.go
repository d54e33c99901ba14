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

// TestShedThresholdBelowCapacity: for every capacity EnableAdmission
// accepts, reads shed from 90% occupancy, at least 1 and below capacity,
// so shedding precedes refusal.
func TestShedThresholdBelowCapacity(t *testing.T) {
	srv, _ := benchService(t)
	for _, tc := range []struct{ capacity, shedAt int }{
		{1, 1}, // raised to 2
		{2, 1},
		{3, 2},
		{10, 9},
		{50_000, 45_000},
	} {
		srv.EnableAdmission(tc.capacity)
		if a := srv.adm; a.shedAt != tc.shedAt || a.shedAt < 1 || a.shedAt >= a.capacity {
			t.Errorf("capacity %d: shedAt %d of %d, want %d", tc.capacity, a.shedAt, a.capacity, tc.shedAt)
		}
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
