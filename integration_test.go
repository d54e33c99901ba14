package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
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
		Workers: 4, Runner: runner, Events: bus,
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
// simulated crash, through the public service API: the data dir is copied
// once two commits are acknowledged — the copy is what kill -9 would leave —
// and a second stack, booted from the seed on the copy, has both commits on
// its mainline and lands two more.
func TestEndToEndDurableRestart(t *testing.T) {
	seed := func() *repo.Repo {
		return repo.New(map[string]string{"f/BUILD": "target f srcs=s.txt", "f/s.txt": "v1"})
	}
	stackCfg := func(dir string) api.StackConfig {
		return api.StackConfig{
			Core: core.Config{Workers: 2},
			Addr: "127.0.0.1:0", DataDir: dir,
		}
	}
	submit := func(st *api.Stack, i int) {
		t.Helper()
		body, _ := json.Marshal(api.SubmitRequest{ID: fmt.Sprintf("d%d", i), Author: "it",
			Files: []api.FileChange{{Path: fmt.Sprintf("f/new%d.txt", i), Op: "create", Content: "x"}}})
		resp, err := http.Post(st.URL()+"/api/v1/changes", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit d%d: %d", i, resp.StatusCode)
		}
	}
	committed := func(st *api.Stack, i int) core.Status {
		t.Helper()
		id := change.ID(fmt.Sprintf("d%d", i))
		deadline := time.Now().Add(20 * time.Second)
		for {
			s, err := st.Service().State(id)
			if err != nil {
				t.Fatal(err)
			}
			if s.State == change.StateCommitted {
				return s
			}
			if s.State != change.StatePending || time.Now().After(deadline) {
				t.Fatalf("%s = %+v, want committed", id, s)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	dir, crashed := t.TempDir(), t.TempDir()
	st, err := api.OpenStack(seed(), stackCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	acked := map[int]core.Status{}
	for i := 0; i < 2; i++ {
		submit(st, i)
	}
	for i := 0; i < 2; i++ {
		acked[i] = committed(st, i)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(crashed, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := api.OpenStack(seed(), stackCfg(crashed))
	if err != nil {
		t.Fatal(err)
	}
	svc2 := st2.Service()
	if n := svc2.Repo().Len(); n != 3 { // root + 2 acknowledged commits
		t.Fatalf("mainline after the crash = %d commits", n)
	}
	for i, want := range acked {
		if got := committed(st2, i); got != want {
			t.Fatalf("d%d after the crash = %+v, want %+v", i, got, want)
		}
		if _, err := svc2.Repo().Lookup(want.Commit); err != nil {
			t.Fatalf("d%d's commit is not on the recovered mainline: %v", i, err)
		}
	}
	for i := 2; i < 4; i++ {
		submit(st2, i)
	}
	for i := 2; i < 4; i++ {
		committed(st2, i)
	}
	if n := svc2.Repo().Len(); n != 5 { // root + 4 commits
		t.Fatalf("mainline = %d commits", n)
	}
	// Folding the journal at shutdown leaves only the commit records.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := store.LoadState(filepath.Join(crashed, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	pending, outcomes := store.PendingFromRecords(recs)
	commits, err := store.Mainline(recs)
	if err != nil || len(pending) != 0 || len(outcomes) != 0 || len(commits) != 4 {
		t.Fatalf("after the shutdown snapshot: pending=%d outcomes=%d commits=%d (%v)", len(pending), len(outcomes), len(commits), err)
	}
}
