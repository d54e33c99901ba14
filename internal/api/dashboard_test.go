package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/change"
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

// rejectedService returns a service that has decided n changes, each
// rejected at once: its patch does not apply to the head.
func rejectedService(t *testing.T, n int) *core.Service {
	t.Helper()
	svc := core.NewService(repo.New(map[string]string{"lib/BUILD": "target lib srcs=lib.go", "lib/lib.go": "lib v1"}),
		core.Config{Workers: 2})
	for i := 0; i < n; i++ {
		c := &change.Change{
			ID: change.ID(fmt.Sprintf("r%05d", i)),
			Patch: repo.Patch{Changes: []repo.FileChange{{
				Path: "lib/lib.go", Op: repo.OpModify, BaseHash: repo.HashContent("lib v0"), NewContent: "x",
			}}},
			BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
		}
		if err := svc.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := svc.OutcomeCount(); got != n {
		t.Fatalf("decided %d changes, want %d", got, n)
	}
	return svc
}

// TestOutcomesRoutePages: GET /api/v1/outcomes is a cursor over the decision
// log. A page holds the decisions after `after`, at most `limit` of them
// (100 unnamed, 1 000 at most), and `next` is the seq to ask after next; a
// malformed or negative after, or a limit below 1, is a 400.
func TestOutcomesRoutePages(t *testing.T) {
	svc := rejectedService(t, 1100)
	srv := NewServer(svc)
	outs := svc.Outcomes()
	for _, tc := range []struct {
		query    string
		first, n int
		wantNext int
	}{
		{"", 0, 100, 100},
		{"?after=1095", 1095, 5, 1100},
		{"?after=40&limit=3", 40, 3, 43},
		{"?limit=5000", 0, 1000, 1000},
		{"?after=1100", 1100, 0, 1100},
		{"?after=2000", 1100, 0, 2000},
	} {
		rec := doJSON(t, srv, http.MethodGet, "/api/v1/outcomes"+tc.query, nil)
		var page OutcomesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%q: %d %v: %s", tc.query, rec.Code, err, rec.Body)
		}
		if len(page.Outcomes) != tc.n || page.Next != tc.wantNext {
			t.Fatalf("%q: %d outcomes, next %d; want %d, next %d", tc.query, len(page.Outcomes), page.Next, tc.n, tc.wantNext)
		}
		for i, o := range page.Outcomes {
			if want := outs[tc.first+i]; o.ID != string(want.ID) || o.State != want.State.String() || o.Reason != want.Reason {
				t.Fatalf("%q: item %d = %+v, decision %d is %+v", tc.query, i, o, tc.first+i+1, want)
			}
		}
	}
	for _, query := range []string{"?after=x", "?after=-1", "?limit=0", "?limit=-3", "?limit=ten"} {
		if rec := doJSON(t, srv, http.MethodGet, "/api/v1/outcomes"+query, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("%q = %d, want 400", query, rec.Code)
		}
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

// TestDashboardListsLastTwentyDecisions: after 30 decisions the dashboard
// lists exactly the last 20, in decision order.
func TestDashboardListsLastTwentyDecisions(t *testing.T) {
	r := repo.New(map[string]string{"lib/BUILD": "target lib srcs=lib.go", "lib/lib.go": "lib v1"})
	svc := core.NewService(r, core.Config{Workers: 4})
	for i := 0; i < 30; i++ {
		c := &change.Change{
			ID:         change.ID(fmt.Sprintf("d%02d", i)),
			Patch:      repo.Patch{Changes: []repo.FileChange{{Path: fmt.Sprintf("doc/f%02d.txt", i), Op: repo.OpCreate, NewContent: "x"}}},
			BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
		}
		if err := svc.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := svc.ProcessAll(ctx); err != nil {
		t.Fatal(err)
	}
	outs := svc.Outcomes()
	if len(outs) != 30 {
		t.Fatalf("decided %d changes, want 30", len(outs))
	}
	body := doJSON(t, NewServer(svc), http.MethodGet, "/", nil).Body.String()
	if n := strings.Count(body, "</td><td class="); n != 20 {
		t.Fatalf("dashboard lists %d outcomes, want 20", n)
	}
	last := -1
	for i, o := range outs {
		at := strings.Index(body, "<tr><td>"+string(o.ID)+"</td><td class=")
		switch {
		case i < 10 && at >= 0:
			t.Fatalf("dashboard lists %s, decision %d of 30", o.ID, i+1)
		case i >= 10 && at < 0:
			t.Fatalf("dashboard misses %s, decision %d of 30", o.ID, i+1)
		case i >= 10 && at < last:
			t.Fatalf("dashboard lists %s out of decision order", o.ID)
		}
		last = at
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
