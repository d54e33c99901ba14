package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/clock"
	"mastergreen/internal/core"
	"mastergreen/internal/repo"
	"mastergreen/internal/sched"
	"mastergreen/internal/store"
)

func newServer(t *testing.T) (*Server, *core.Service, *repo.Repo) {
	t.Helper()
	r := repo.New(map[string]string{
		"lib/BUILD":  "target lib srcs=lib.go",
		"lib/lib.go": "lib v1",
	})
	svc := core.NewService(r, core.Config{Workers: 2})
	svc.Start()
	t.Cleanup(svc.Stop)
	return NewServer(svc), svc, r
}

func doJSON(t *testing.T, h http.Handler, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestSubmitAndPoll(t *testing.T) {
	srv, _, _ := newServer(t)
	sub := SubmitRequest{
		ID: "c1", Author: "alice", Team: "infra", Description: "edit lib",
		Files: []FileChange{{
			Path: "lib/lib.go", Op: "modify", BaseContent: "lib v1", Content: "lib v2",
		}},
		TestPlan: true,
	}
	rec := doJSON(t, srv, http.MethodPost, "/api/v1/changes", sub)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec = doJSON(t, srv, http.MethodGet, "/api/v1/changes/c1", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("state status = %d", rec.Code)
		}
		var st StateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "committed" {
			if st.Commit == "" {
				t.Fatal("committed without commit id")
			}
			return
		}
		if st.State == "rejected" {
			t.Fatalf("rejected: %s", st.Reason)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never committed; state=%s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitValidationErrors(t *testing.T) {
	srv, _, _ := newServer(t)
	// Bad JSON.
	req := httptest.NewRequest(http.MethodPost, "/api/v1/changes", bytes.NewBufferString("{"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json status = %d", rec.Code)
	}
	// Unknown op.
	rec = doJSON(t, srv, http.MethodPost, "/api/v1/changes", SubmitRequest{
		ID: "c2", Files: []FileChange{{Path: "x", Op: "exec"}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown op status = %d", rec.Code)
	}
	// Missing path.
	rec = doJSON(t, srv, http.MethodPost, "/api/v1/changes", SubmitRequest{
		ID: "c3", Files: []FileChange{{Op: "create"}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing path status = %d", rec.Code)
	}
	// Empty patch rejected by core validation.
	rec = doJSON(t, srv, http.MethodPost, "/api/v1/changes", SubmitRequest{ID: "c4"})
	if rec.Code != http.StatusConflict {
		t.Fatalf("empty patch status = %d", rec.Code)
	}
	// Wrong method.
	rec = doJSON(t, srv, http.MethodGet, "/api/v1/changes", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET collection status = %d", rec.Code)
	}
}

func TestDuplicateSubmit(t *testing.T) {
	srv, _, _ := newServer(t)
	sub := SubmitRequest{
		ID:    "dup",
		Files: []FileChange{{Path: "new.txt", Op: "create", Content: "x"}},
	}
	if rec := doJSON(t, srv, http.MethodPost, "/api/v1/changes", sub); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rec.Code)
	}
	if rec := doJSON(t, srv, http.MethodPost, "/api/v1/changes", sub); rec.Code != http.StatusConflict {
		t.Fatalf("dup submit = %d", rec.Code)
	}
}

// TestResubmitDecidedConflicts: re-submitting the ID of a change the service
// already decided is a 409, and the recorded decision stands.
func TestResubmitDecidedConflicts(t *testing.T) {
	srv, svc, _ := newServer(t)
	sub := SubmitRequest{
		ID:    "once",
		Files: []FileChange{{Path: "lib/lib.go", Op: "modify", BaseContent: "lib v1", Content: "lib v2"}},
	}
	if rec := doJSON(t, srv, http.MethodPost, "/api/v1/changes", sub); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := svc.State("once")
		if err != nil {
			t.Fatal(err)
		}
		if st.State == change.StateCommitted {
			break
		}
		if st.State == change.StateRejected || time.Now().After(deadline) {
			t.Fatalf("first submission not committed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	sub.Files[0] = FileChange{Path: "lib/lib.go", Op: "modify", BaseContent: "lib v2", Content: "lib v3"}
	if rec := doJSON(t, srv, http.MethodPost, "/api/v1/changes", sub); rec.Code != http.StatusConflict {
		t.Fatalf("re-submit of a committed ID = %d: %s", rec.Code, rec.Body)
	}
	if st, err := svc.State("once"); err != nil || st.State != change.StateCommitted {
		t.Fatalf("state after re-submit = %+v, %v", st, err)
	}
	if n := svc.PendingCount(); n != 0 {
		t.Fatalf("pending after re-submit = %d", n)
	}
}

func TestStateUnknown(t *testing.T) {
	srv, _, _ := newServer(t)
	rec := doJSON(t, srv, http.MethodGet, "/api/v1/changes/ghost", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
	rec = doJSON(t, srv, http.MethodGet, "/api/v1/changes/", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty id status = %d", rec.Code)
	}
	rec = doJSON(t, srv, http.MethodPost, "/api/v1/changes/x", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST state status = %d", rec.Code)
	}
}

func TestStatusAndHealth(t *testing.T) {
	srv, _, r := newServer(t)
	rec := doJSON(t, srv, http.MethodGet, "/api/v1/status", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var st StatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.MainlineLen != r.Len() || st.MainlineHead == "" {
		t.Fatalf("status = %+v", st)
	}
	rec = doJSON(t, srv, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	rec = doJSON(t, srv, http.MethodPost, "/api/v1/status", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", rec.Code)
	}
}

func TestAutoIDAssigned(t *testing.T) {
	srv, _, _ := newServer(t)
	rec := doJSON(t, srv, http.MethodPost, "/api/v1/changes", SubmitRequest{
		Files: []FileChange{{Path: "auto.txt", Op: "create", Content: "x"}},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	var resp SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" {
		t.Fatal("no auto ID assigned")
	}
}

// TestAPIStampsOnServiceClock: a service and its API server share one
// clock. A submission with no ID and a deadline_in_sec of 60 gets an ID and
// a SubmittedAt from the service's manual clock, and the planner weighs its
// deadline on that clock: its weight ages while the clock moves toward the
// 60 s mark, and past it the aging timer is disarmed.
func TestAPIStampsOnServiceClock(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	m := clock.NewManual(t0)
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	pol := sched.Default()
	pol.UrgencyHorizon = time.Minute
	hold := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
		<-ctx.Done()
		return buildsys.ErrAborted
	})
	svc, err := core.OpenRecovered(repo.New(map[string]string{
		"lib/BUILD":  "target lib srcs=lib.go",
		"lib/lib.go": "lib v1",
	}), journal, core.Config{Workers: 1, Clock: m, Sched: pol, Runner: hold})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.CloseJournal() }() // the test reads the journal while it is open
	rec := doJSON(t, NewServer(svc), http.MethodPost, "/api/v1/changes", SubmitRequest{
		Priority: "bulk", DeadlineInSec: 60,
		Files: []FileChange{{Path: "lib/lib.go", Op: "modify", BaseContent: "lib v1", Content: "lib v2"}},
	})
	var resp SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, %v: %s", rec.Code, err, rec.Body)
	}
	if want := "c-" + strconv.FormatInt(t0.UnixNano(), 10); resp.ID != want {
		t.Fatalf("generated ID %q, want %q from the service's clock", resp.ID, want)
	}
	recs, err := store.LoadState(journal)
	if err != nil || len(recs) != 1 || recs[0].Submit == nil || !recs[0].Submit.SubmittedAt.Equal(t0) {
		t.Fatalf("journal after the submit: %v, %+v; want SubmittedAt %v", err, recs, t0)
	}

	svc.Start()
	defer svc.Stop()
	// replanned waits until the engine has computed more than after plans,
	// has stopped ticking and leaves armed timers armed; it returns the plans.
	replanned := func(what string, after, armed int) int {
		t.Helper()
		deadline, last := time.Now().Add(5*time.Second), -1
		for {
			ps := svc.PlannerStats()
			if ticks := ps.PlansComputed + ps.PlansSkipped; ps.PlansComputed > after && ticks == last && m.Armed() == armed {
				return ps.PlansComputed
			} else if time.Now().After(deadline) {
				t.Fatalf("%s: %d timers armed, %+v", what, m.Armed(), ps)
			} else {
				last = ticks
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	plans := replanned("the first plan to arm the aging timer", 0, 1)
	m.Advance(58 * time.Second)
	plans = replanned("a replan 2 s before the deadline, still aging", plans, 1)
	m.Advance(3 * time.Second)
	replanned("a replan past the deadline, aging done", plans, 0)
}
