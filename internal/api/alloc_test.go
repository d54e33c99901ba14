package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"mastergreen/internal/events"
)

// Alloc budgets for the hot handlers, measured with testing.AllocsPerRun.
// The pre-PR baseline (stdlib json decode/encode, per-request status
// aggregation) was 28 allocs per submit and 5 per state read; the budgets
// pin the ≥5x reduction so a regression fails loudly instead of silently
// eroding throughput. If a budget trips, profile with
// `go test -bench BenchmarkSubmitHandler -memprofile` before raising it.
const (
	submitAllocBudget = 6 // measured 5 + headroom for map-growth amortization
	stateAllocBudget  = 1 // measured 0
	// A status render with events and admission on: measured 0 allocs and
	// 0 B; the rebuild it replaced (reflection-named gauges into a map,
	// then json.Marshal) cost 460 allocs and 25.5 KB.
	statusAllocBudget, statusBytesBudget = 2, 2560
)

// TestSubmitHandlerAllocBudget pins the submit path's allocations per
// request end to end through ServeHTTP.
func TestSubmitHandlerAllocBudget(t *testing.T) {
	srv, _ := benchService(t)
	const runs = 1000
	reqs := make([]*http.Request, 0, runs+2)
	for i := 0; i < runs+2; i++ {
		reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/api/v1/changes",
			strings.NewReader(submitBody(i))))
	}
	w := &nullResponseWriter{}
	idx := 0
	allocs := testing.AllocsPerRun(runs, func() {
		srv.ServeHTTP(w, reqs[idx])
		idx++
	})
	if allocs > submitAllocBudget {
		t.Fatalf("submit handler allocs/op = %.1f, budget %d (pre-PR baseline: 28)",
			allocs, submitAllocBudget)
	}
}

// TestStateHandlerAllocBudget pins the state-poll path's allocations per
// request end to end through ServeHTTP.
func TestStateHandlerAllocBudget(t *testing.T) {
	srv, _ := benchService(t)
	seed := httptest.NewRequest(http.MethodPost, "/api/v1/changes", strings.NewReader(submitBody(0)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, seed)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("seed submit = %d: %s", rec.Code, rec.Body)
	}
	get := httptest.NewRequest(http.MethodGet, "/api/v1/changes/bench-0", nil)
	w := &nullResponseWriter{}
	allocs := testing.AllocsPerRun(1000, func() {
		srv.ServeHTTP(w, get)
	})
	if allocs > stateAllocBudget {
		t.Fatalf("state handler allocs/op = %.1f, budget %d (pre-PR baseline: 5)",
			allocs, stateAllocBudget)
	}
}

// TestOutcomesPageAllocsFlat: a page of the outcomes route copies only the
// page, so a 20-decision page of a 10 000-decision log costs within 10 % of
// the allocations of one of a 100-decision log.
func TestOutcomesPageAllocsFlat(t *testing.T) {
	perPage := func(decisions int) float64 {
		srv := NewServer(rejectedService(t, decisions))
		get := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/v1/outcomes?after=%d&limit=20", decisions-20), nil)
		w := &nullResponseWriter{}
		return testing.AllocsPerRun(200, func() {
			srv.ServeHTTP(w, get)
		})
	}
	small, large := perPage(100), perPage(10000)
	if large > 1.1*small {
		t.Fatalf("outcomes page allocs/op = %.1f over 10 000 decisions, %.1f over 100", large, small)
	}
}

// TestStatusHandlerAllocBudget pins the status render's allocations and
// bytes per request end to end through ServeHTTP, with the event bus and
// admission gauges on and one change decided.
func TestStatusHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	srv, svc := benchService(t)
	srv.SetEvents(events.NewBus(64))
	srv.EnableAdmission(1024)
	decideOne(t, srv, svc, 0)
	get := httptest.NewRequest(http.MethodGet, "/api/v1/status", nil)
	w := &nullResponseWriter{}
	const runs = 1000
	srv.ServeHTTP(w, get) // warm the pools and the gauge names
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		srv.ServeHTTP(w, get)
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / runs
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	if allocs > statusAllocBudget || bytes > statusBytesBudget {
		t.Fatalf("status handler: %.1f allocs, %.0f B per request; budget %d allocs, %d B (the rebuild it replaced: 460, 25.5 KB)",
			allocs, bytes, statusAllocBudget, statusBytesBudget)
	}
}
