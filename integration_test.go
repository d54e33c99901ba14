package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mastergreen/internal/api"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
	"mastergreen/internal/store"
)

// TestEndToEndHTTPStack drives the entire service through the HTTP API the
// way the paper's developers do (Fig. 3): concurrent submissions, some
// conflicting and some broken, over a real network listener — then audits
// that every mainline commit point is green.
func TestEndToEndHTTPStack(t *testing.T) {
	r := repo.New(map[string]string{
		"app/BUILD":   "target app srcs=main.go deps=//lib:lib",
		"app/main.go": "app v1",
		"lib/BUILD":   "target lib srcs=lib.go",
		"lib/lib.go":  "lib v1",
	})
	runner := buildsys.RunnerFunc(func(_ context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		for _, p := range snap.Paths() {
			if c, _ := snap.Read(p); strings.Contains(c, "BROKEN") {
				return fmt.Errorf("%s does not compile", p)
			}
		}
		return nil
	})
	bus := events.NewBus(256)
	svc := core.NewService(r, core.Config{
		Workers: 4, Runner: runner, Epoch: 2 * time.Millisecond, Events: bus,
	})
	svc.Start()
	defer svc.Stop()
	srv := api.NewServer(svc)
	srv.SetEvents(bus)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	submit := func(t *testing.T, id string, files []api.FileChange) {
		t.Helper()
		body, _ := json.Marshal(api.SubmitRequest{ID: id, Author: "it", Files: files})
		resp, err := http.Post(ts.URL+"/api/v1/changes", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d", id, resp.StatusCode)
		}
	}

	// Concurrent submissions: independent creates, one broken change, and a
	// pair editing the same file (merge conflict).
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			submit(t, fmt.Sprintf("ind-%d", i), []api.FileChange{{
				Path: fmt.Sprintf("new/f%d.txt", i), Op: "create", Content: "x",
			}})
		}(i)
	}
	wg.Wait()
	submit(t, "broken", []api.FileChange{{
		Path: "lib/lib.go", Op: "modify", BaseContent: "lib v1", Content: "BROKEN",
	}})
	submit(t, "conflict-a", []api.FileChange{{
		Path: "app/main.go", Op: "modify", BaseContent: "app v1", Content: "app v2a",
	}})
	submit(t, "conflict-b", []api.FileChange{{
		Path: "app/main.go", Op: "modify", BaseContent: "app v1", Content: "app v2b",
	}})

	// Poll until everything is decided.
	poll := func(id string) (state, reason string) {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(ts.URL + "/api/v1/changes/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				State  string `json:"state"`
				Reason string `json:"reason"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if st.State == "committed" || st.State == "rejected" {
				return st.State, st.Reason
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("%s never decided", id)
		return "", ""
	}
	for i := 0; i < 6; i++ {
		if st, reason := poll(fmt.Sprintf("ind-%d", i)); st != "committed" {
			t.Fatalf("ind-%d = %s (%s)", i, st, reason)
		}
	}
	if st, _ := poll("broken"); st != "rejected" {
		t.Fatalf("broken = %s", st)
	}
	stA, _ := poll("conflict-a")
	stB, _ := poll("conflict-b")
	if !(stA == "committed" && stB == "rejected") {
		t.Fatalf("conflict pair = %s/%s, want committed/rejected (submission order)", stA, stB)
	}

	// Audit: every mainline commit point is green.
	for i := 0; i < r.Len(); i++ {
		cm, err := r.At(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range cm.Snapshot().Paths() {
			if c, _ := cm.Snapshot().Read(p); strings.Contains(c, "BROKEN") {
				t.Fatalf("mainline red at commit %d", i)
			}
		}
	}

	// The event feed saw the full lifecycle.
	resp, err := http.Get(ts.URL + "/api/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	var evResp api.EventsResponse
	_ = json.NewDecoder(resp.Body).Decode(&evResp)
	resp.Body.Close()
	seen := map[events.Type]bool{}
	for _, ev := range evResp.Events {
		seen[ev.Type] = true
	}
	for _, want := range []events.Type{
		events.TypeSubmitted, events.TypeBuildStarted,
		events.TypeBuildFinished, events.TypeCommitted, events.TypeRejected,
	} {
		if !seen[want] {
			t.Fatalf("event feed missing %s (have %v)", want, seen)
		}
	}

	// The dashboard renders with the landed history.
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "master is green") {
		t.Fatal("dashboard did not render")
	}
}

// TestEndToEndDurableRestart exercises the durability path across a
// simulated crash mid-backlog, through the public service API.
func TestEndToEndDurableRestart(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")

	r := repo.New(map[string]string{"f/BUILD": "target f srcs=s.txt", "f/s.txt": "v1"})
	j, err := store.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	svc := core.NewService(r, core.Config{Workers: 2})
	svc.AttachJournal(j)
	for i := 0; i < 4; i++ {
		c := &change.Change{
			ID: change.ID(fmt.Sprintf("d%d", i)),
			Patch: repo.Patch{Changes: []repo.FileChange{{
				Path: fmt.Sprintf("f/new%d.txt", i), Op: repo.OpCreate, NewContent: "x",
			}}},
			BuildSteps: change.DefaultBuildSteps(),
		}
		if err := svc.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	// Crash before processing anything.
	var snap bytes.Buffer
	if err := r.Save(&snap); err != nil {
		t.Fatal(err)
	}
	_ = j.Close()

	r2, err := repo.Load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := core.OpenRecovered(r2, journalPath, core.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if svc2.PendingCount() != 4 {
		t.Fatalf("recovered pending = %d", svc2.PendingCount())
	}
	if err := svc2.ProcessAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 5 { // root + 4 commits
		t.Fatalf("mainline = %d commits", r2.Len())
	}
	// Folding the journal at shutdown leaves only outcomes.
	if err := svc2.SnapshotJournal(100); err != nil {
		t.Fatal(err)
	}
	if err := svc2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	recs, err := store.LoadState(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	pending, outcomes := store.PendingFromRecords(recs)
	if len(pending) != 0 || len(outcomes) != 4 {
		t.Fatalf("after the shutdown snapshot: pending=%d outcomes=%d", len(pending), len(outcomes))
	}
}
