package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/clock"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
)

// nullResponseWriter discards the response so handler benchmarks measure the
// handler's own allocations, not the recorder's.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

func benchService(b testing.TB) (*Server, *core.Service) {
	return libService(core.Config{Workers: 2})
}

// libService serves a one-target repository. No background loop: the
// benchmarks exercise only the HTTP layer.
func libService(cfg core.Config) (*Server, *core.Service) {
	svc := core.NewService(repo.New(map[string]string{
		"lib/BUILD":  "target lib srcs=lib.go",
		"lib/lib.go": "lib v1",
	}), cfg)
	return NewServer(svc), svc
}

// manualService is benchService on a manual clock.
func manualService(t testing.TB) (*Server, *core.Service, *clock.Manual) {
	m := clock.NewManual(time.Unix(5000, 0))
	srv, svc := libService(core.Config{Workers: 2, Clock: m})
	return srv, svc, m
}

// submitBody returns one pre-rendered submit request body.
func submitBody(i int) string {
	return fmt.Sprintf(`{"id":"bench-%d","author":"bench","team":"load",`+
		`"files":[{"path":"load/f-%d.txt","op":"create","content":"content"}],"test_plan":true}`, i, i)
}

// BenchmarkSubmitHandler measures POST /api/v1/changes end to end through
// ServeHTTP (decode, validate, enqueue, encode). Alloc budget pinned by
// TestSubmitHandlerAllocBudget.
func BenchmarkSubmitHandler(b *testing.B) {
	srv, _ := benchService(b)
	bodies := make([]string, b.N)
	reqs := make([]*http.Request, b.N)
	for i := 0; i < b.N; i++ {
		bodies[i] = submitBody(i)
		reqs[i] = httptest.NewRequest(http.MethodPost, "/api/v1/changes", strings.NewReader(bodies[i]))
	}
	w := &nullResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.ServeHTTP(w, reqs[i])
	}
}

// BenchmarkStateHandler measures GET /api/v1/changes/{id}. Alloc budget
// pinned by TestStateHandlerAllocBudget.
func BenchmarkStateHandler(b *testing.B) {
	srv, _ := benchService(b)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/changes", strings.NewReader(submitBody(0)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		b.Fatalf("seed submit = %d: %s", rec.Code, rec.Body)
	}
	get := httptest.NewRequest(http.MethodGet, "/api/v1/changes/bench-0", nil)
	w := &nullResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.ServeHTTP(w, get)
	}
}

// BenchmarkStatusHandler measures GET /api/v1/status (the dashboard poll),
// rendered on every request with the event bus and admission gauges on.
// Budget pinned by TestStatusHandlerAllocBudget.
func BenchmarkStatusHandler(b *testing.B) {
	srv, _ := benchService(b)
	srv.SetEvents(events.NewBus(64))
	srv.EnableAdmission(1024)
	get := httptest.NewRequest(http.MethodGet, "/api/v1/status", nil)
	w := &nullResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.ServeHTTP(w, get)
	}
}
