package api

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
)

// newEventedServer wires a service with an event bus attached.
func newEventedServer(t *testing.T) (*Server, *events.Bus) {
	t.Helper()
	r := repo.New(map[string]string{
		"lib/BUILD":  "target lib srcs=lib.go",
		"lib/lib.go": "lib v1",
	})
	bus := events.NewBus(128)
	svc := core.NewService(r, core.Config{Workers: 2, Events: bus})
	srv := NewServer(svc)
	srv.SetEvents(bus)
	// Land one change synchronously so there is history to show.
	sub := SubmitRequest{
		ID: "c1", Author: "alice",
		Files: []FileChange{{Path: "lib/lib.go", Op: "modify", BaseContent: "lib v1", Content: "lib v2"}},
	}
	rec := doJSON(t, srv, http.MethodPost, "/api/v1/changes", sub)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.ProcessAll(ctx); err != nil {
		t.Fatal(err)
	}
	return srv, bus
}

func TestEventsEndpoint(t *testing.T) {
	srv, bus := newEventedServer(t)
	rec := doJSON(t, srv, http.MethodGet, "/api/v1/events", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp EventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) == 0 || resp.LastSeq == 0 {
		t.Fatalf("no events: %+v", resp)
	}
	// The lifecycle must include a submit and a commit.
	types := map[events.Type]bool{}
	for _, ev := range resp.Events {
		types[ev.Type] = true
	}
	if !types[events.TypeSubmitted] || !types[events.TypeCommitted] || !types[events.TypeBuildStarted] {
		t.Fatalf("missing lifecycle events: %v", types)
	}
	// Since filtering works.
	rec = doJSON(t, srv, http.MethodGet, "/api/v1/events?since="+jsonInt(resp.LastSeq), nil)
	var resp2 EventsResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp2)
	if len(resp2.Events) != 0 {
		t.Fatalf("since filter leaked %d events", len(resp2.Events))
	}
	// Bad since.
	rec = doJSON(t, srv, http.MethodGet, "/api/v1/events?since=abc", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad since = %d", rec.Code)
	}
	_ = bus
}

func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestEventsDisabled(t *testing.T) {
	srv, _, _ := newServer(t)
	rec := doJSON(t, srv, http.MethodGet, "/api/v1/events", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestOutcomesEndpoint(t *testing.T) {
	srv, _ := newEventedServer(t)
	rec := doJSON(t, srv, http.MethodGet, "/api/v1/outcomes", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"c1"`) || !strings.Contains(rec.Body.String(), "committed") {
		t.Fatalf("body = %s", rec.Body.String())
	}
	if rec := doJSON(t, srv, http.MethodPost, "/api/v1/outcomes", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST = %d", rec.Code)
	}
}

func TestDashboardRenders(t *testing.T) {
	srv, _ := newEventedServer(t)
	rec := doJSON(t, srv, http.MethodGet, "/", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"SubmitQueue", "master is green", "c1", "committed", "recent events",
		"<td>arbiter_commits</td><td>1</td>", "<td>events_published</td>"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	// Unknown paths 404 rather than rendering the dashboard.
	rec = doJSON(t, srv, http.MethodGet, "/nope", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path = %d", rec.Code)
	}
}

func TestSubmitLineEditOverHTTP(t *testing.T) {
	srv, _ := newEventedServer(t)
	// lib/lib.go is now "lib v2" (landed by newEventedServer); edit it again
	// with a line hunk.
	sub := SubmitRequest{
		ID: "le1", Author: "alice", Benefit: 10,
		Files: []FileChange{{
			Path: "lib/lib.go", Op: "edit-lines",
			StartLine: 1, OldLines: []string{"lib v2"}, NewLines: []string{"lib v3"},
		}},
	}
	rec := doJSON(t, srv, http.MethodPost, "/api/v1/changes", sub)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
}
