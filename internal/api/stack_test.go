package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/repo"
	"mastergreen/internal/store"
)

func stackRepo() *repo.Repo {
	return repo.New(map[string]string{
		"app/BUILD":     "target app srcs=main.go deps=//lib:lib",
		"app/main.go":   "app v1",
		"lib/BUILD":     "target lib srcs=lib.go",
		"lib/lib.go":    "lib v1",
		"doc/BUILD":     "target doc srcs=readme.md",
		"doc/readme.md": "doc v1",
	})
}

// submitOver posts a one-file modify to a running stack.
func submitOver(t *testing.T, st *Stack, id, path, base, content string) {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{ID: id, Author: "dev", Files: []FileChange{{
		Path: path, Op: "modify", BaseContent: base, Content: content,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(st.URL()+"/api/v1/changes", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // the status code is the whole answer
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: %d", id, resp.StatusCode)
	}
}

// stateOver reads GET /api/v1/changes/{id} from a running stack.
func stateOver(t *testing.T, st *Stack, id string) StateResponse {
	t.Helper()
	resp, err := http.Get(st.URL() + "/api/v1/changes/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StateResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("state of %s: %v", id, err)
	}
	return sr
}

// decidedOver polls a change's state until it is committed or rejected.
func decidedOver(t *testing.T, st *Stack, id string) StateResponse {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		sr := stateOver(t, st, id)
		if sr.State == change.StateCommitted.String() || sr.State == change.StateRejected.String() {
			return sr
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never decided: %+v", id, sr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShutdownSnapshotRestart closes a durable stack — Stop, SaveFile,
// SnapshotJournal, CloseJournal — with some changes decided and others still
// building, then opens a second stack on the same data dir: exactly the
// undecided changes are pending again, every decided change keeps its state,
// and the folded journal holds each ID once.
func TestShutdownSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	started := make(chan struct{}, 1)
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		if c, _ := snap.Read("doc/readme.md"); c == "bug" {
			return errors.New("doc lint failed")
		}
		if c, _ := snap.Read("app/main.go"); c == "app held" {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return buildsys.ErrAborted
		}
		return nil
	})
	cfg := StackConfig{
		Core: core.Config{Workers: 2, Epoch: time.Millisecond, Runner: runner},
		Addr: "127.0.0.1:0", DataDir: dir,
	}
	st, err := OpenStack(stackRepo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitOver(t, st, "ok", "lib/lib.go", "lib v1", "lib v2")
	submitOver(t, st, "bad", "doc/readme.md", "doc v1", "bug")
	decided := map[string]StateResponse{}
	for _, id := range []string{"ok", "bad"} {
		decided[id] = decidedOver(t, st, id)
	}
	if decided["ok"].State != "committed" || decided["bad"].State != "rejected" {
		t.Fatalf("before shutdown: %+v", decided)
	}

	submitOver(t, st, "held", "app/main.go", "app v1", "app held")
	submitOver(t, st, "after", "app/main.go", "app v1", "app v3")
	<-started
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(journalPath); err != nil || fi.Size() != 0 {
		t.Fatalf("live journal after the shutdown snapshot: %v, %v; want it truncated", fi, err)
	}

	recs, err := store.LoadState(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	submits, outcomes := map[change.ID]int{}, map[change.ID]int{}
	for _, rec := range recs {
		if rec.Submit != nil {
			submits[rec.Submit.ID]++
		}
		if rec.Outcome != nil {
			outcomes[rec.Outcome.ID]++
		}
	}
	for id, n := range submits {
		if n > 1 || outcomes[id] > 1 || (n == 1 && outcomes[id] == 1) {
			t.Fatalf("%s folded as %d submits and %d outcomes; want one of either", id, n, outcomes[id])
		}
	}

	st2, err := OpenStack(stackRepo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st2.Close(); err != nil {
			t.Error(err)
		}
	})
	if n := st2.Service().Repo().Len(); n != 2 {
		t.Fatalf("mainline after restart = %d commits, want root + ok from repo.json", n)
	}
	// PendingCount is lock-free and may double-count a change for the epoch
	// in which the started service adopts it: wait for it to settle.
	deadline := time.Now().Add(20 * time.Second)
	for n := st2.Service().PendingCount(); n != 2; n = st2.Service().PendingCount() {
		if time.Now().After(deadline) {
			t.Fatalf("pending after restart = %d, want 2", n)
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range []string{"held", "after"} {
		if sr := stateOver(t, st2, id); sr.State != "pending" {
			t.Fatalf("%s after restart = %+v; want pending", id, sr)
		}
	}
	for id, want := range decided {
		if sr := stateOver(t, st2, id); sr != want {
			t.Fatalf("%s after restart = %+v; want %+v", id, sr, want)
		}
	}
}

// TestOpenStackPortTaken: a busy address fails OpenStack with the bind error
// before the data dir is created or a journal opened.
func TestOpenStackPortTaken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dir := filepath.Join(t.TempDir(), "data")
	st, err := OpenStack(stackRepo(), StackConfig{Addr: ln.Addr().String(), DataDir: dir})
	if !errors.Is(err, syscall.EADDRINUSE) {
		if st != nil {
			_ = st.Close() // the test fails either way
		}
		t.Fatalf("OpenStack on a taken port: %v, want EADDRINUSE", err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a failed bind touched the data dir: %v", err)
	}
}

// TestCloseSkipsFoldWhenSaveFails: when repo.json cannot be written, Close
// returns the error and leaves the journal unfolded, so no history is
// dropped that the saved repo does not hold.
func TestCloseSkipsFoldWhenSaveFails(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	st, err := OpenStack(stackRepo(), StackConfig{
		Core: core.Config{Workers: 2, Epoch: time.Millisecond},
		Addr: "127.0.0.1:0", DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	submitOver(t, st, "ok", "lib/lib.go", "lib v1", "lib v2")
	decidedOver(t, st, "ok")
	// A directory in repo.json's place makes the save's rename fail.
	if err := os.Mkdir(filepath.Join(dir, "repo.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err == nil {
		t.Fatal("Close after a failed save returned nil")
	}
	if fi, err := os.Stat(journalPath); err != nil || fi.Size() == 0 {
		t.Fatalf("live journal after a failed save: %v, %v; want it unfolded", fi, err)
	}
	if _, err := os.Stat(store.SnapshotPath(journalPath)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("journal folded after a failed save: %v", err)
	}
}

// TestPeriodicSnapshot: with SnapshotEvery the journal is folded while the
// stack serves, and Close joins the fold before its own.
func TestPeriodicSnapshot(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	st, err := OpenStack(stackRepo(), StackConfig{
		Core: core.Config{Workers: 2, Epoch: time.Millisecond},
		Addr: "127.0.0.1:0", DataDir: dir, SnapshotEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	submitOver(t, st, "ok", "lib/lib.go", "lib v1", "lib v2")
	decidedOver(t, st, "ok")
	deadline := time.Now().Add(20 * time.Second)
	for {
		_, recs, err := store.ReplaySnapshot(store.SnapshotPath(journalPath))
		if err == nil && len(recs) == 1 && recs[0].Outcome != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no periodic fold holding ok's outcome: %v, %d records", err, len(recs))
		}
		time.Sleep(time.Millisecond)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
