package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/clock"
	"mastergreen/internal/core"
)

// awaitArmed spins until n timers are armed on m: a waiting outcomes read
// arms exactly one, its own.
func awaitArmed(t *testing.T, m *clock.Manual, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.Armed() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d timers armed, want %d", m.Armed(), n)
		}
		runtime.Gosched()
	}
}

// getAsync serves GET path on srv in its own goroutine and delivers the
// recorded reply.
func getAsync(srv *Server, req *http.Request) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		done <- rec
	}()
	return done
}

// pageOf waits up to 10 s for a reply and decodes it as a 200 outcomes page.
func pageOf(t *testing.T, done <-chan *httptest.ResponseRecorder) OutcomesResponse {
	t.Helper()
	select {
	case rec := <-done:
		var page OutcomesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("outcomes = %d %v: %s", rec.Code, err, rec.Body)
		}
		return page
	case <-time.After(10 * time.Second):
		t.Fatal("the waiting read never answered")
	}
	return OutcomesResponse{}
}

// decideOne submits change i over srv and publishes its decision.
func decideOne(t *testing.T, srv *Server, svc *core.Service, i int) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/changes", strings.NewReader(submitBody(i))))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	if err := svc.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func outcomesGet(query string) *http.Request {
	return httptest.NewRequest(http.MethodGet, "/api/v1/outcomes"+query, nil)
}

// TestOutcomesWaitAnswersAtOnceWhenPast: a waiting read after a seq the log
// is already past answers with the page at once and leaves no timer armed.
func TestOutcomesWaitAnswersAtOnceWhenPast(t *testing.T) {
	srv, svc, m := manualService(t)
	decideOne(t, srv, svc, 0)
	page := pageOf(t, getAsync(srv, outcomesGet("?after=0&wait=30s")))
	if len(page.Outcomes) != 1 || page.Outcomes[0].ID != "bench-0" || page.Next != 1 {
		t.Fatalf("page = %+v, want bench-0 and next 1", page)
	}
	if n := m.Armed(); n != 0 {
		t.Fatalf("%d timers armed after the read, want 0", n)
	}
}

// TestOutcomesWaitWakesOnPublish: a read waiting past the log's end answers
// as soon as the next decision is published, and disarms its timer.
func TestOutcomesWaitWakesOnPublish(t *testing.T) {
	srv, svc, m := manualService(t)
	decideOne(t, srv, svc, 0)
	done := getAsync(srv, outcomesGet("?after=1&wait=30s"))
	awaitArmed(t, m, 1)
	decideOne(t, srv, svc, 1)
	page := pageOf(t, done)
	if len(page.Outcomes) != 1 || page.Outcomes[0].ID != "bench-1" || page.Next != 2 {
		t.Fatalf("page = %+v, want bench-1 and next 2", page)
	}
	awaitArmed(t, m, 0)
}

// TestOutcomesWaitEndsEmpty: a waiting read with nothing published answers
// with an empty page at its own seq when DUR passes on the service clock,
// and when its request is cancelled.
func TestOutcomesWaitEndsEmpty(t *testing.T) {
	srv, svc, m := manualService(t)
	decideOne(t, srv, svc, 0)

	done := getAsync(srv, outcomesGet("?after=1&wait=5s"))
	awaitArmed(t, m, 1)
	m.Advance(5*time.Second - 1)
	select {
	case rec := <-done:
		t.Fatalf("answered before DUR: %s", rec.Body)
	default:
	}
	m.Advance(1)
	if page := pageOf(t, done); len(page.Outcomes) != 0 || page.Next != 1 {
		t.Fatalf("page at DUR = %+v, want empty with next 1", page)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done = getAsync(srv, outcomesGet("?after=1&wait=30s").WithContext(ctx))
	awaitArmed(t, m, 1)
	cancel()
	if page := pageOf(t, done); len(page.Outcomes) != 0 || page.Next != 1 {
		t.Fatalf("page on cancel = %+v, want empty with next 1", page)
	}
	awaitArmed(t, m, 0)
}

// TestOutcomesWaitRefusesBadDurations: a wait that is not a Go duration, is
// negative or exceeds 30 s is a 400.
func TestOutcomesWaitRefusesBadDurations(t *testing.T) {
	srv, _, _ := manualService(t)
	for _, q := range []string{"?wait=x", "?wait=5", "?wait=-1s", "?wait=31s", "?wait=30.001s"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, outcomesGet(q))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%q = %d, want 400", q, rec.Code)
		}
	}
}

// TestOutcomesWaitEndsOnClose: Stack.Close ends a read waiting on the
// decision log: its client gets an answer and its handler disarms its timer.
func TestOutcomesWaitEndsOnClose(t *testing.T) {
	m := clock.NewManual(time.Unix(1_700_000_000, 0))
	st, err := OpenStack(stackRepo(), StackConfig{Core: core.Config{Workers: 2, Clock: m}, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		resp, err := http.Get(st.URL() + "/api/v1/outcomes?after=0&wait=30s")
		if err == nil {
			_ = resp.Body.Close()
		}
		answered <- err
	}()
	awaitArmed(t, m, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-answered: // an error: the connection closed under it
	case <-time.After(10 * time.Second):
		t.Fatal("the waiting read outlived Close")
	}
	awaitArmed(t, m, 0)
}
