package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
