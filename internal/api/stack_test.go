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
	"mastergreen/internal/clock"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
	"mastergreen/internal/sched"
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

// TestShutdownSnapshotRestart closes a durable stack — Stop,
// SnapshotJournal, CloseJournal — with some changes decided and others still
// building, then opens a second stack from the seed on the same data dir:
// the mainline is back, exactly the undecided changes are pending again,
// every decided change keeps its state, and the folded journal holds each ID
// once.
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
		Core: core.Config{Workers: 2, Runner: runner},
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
	head := st.Service().Repo().Head().ID
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(journalPath); err != nil || fi.Size() != 0 {
		t.Fatalf("live journal after the shutdown snapshot: %v, %v; want it truncated", fi, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if n := e.Name(); n != "journal.jsonl" && n != "journal.jsonl.snap" && n != "journal.jsonl.snap.prev" {
			t.Fatalf("data dir holds %s; want only the journal and its snapshots", n)
		}
	}

	recs, err := store.LoadState(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	submits, decisions := map[change.ID]int{}, map[change.ID]int{}
	for _, rec := range recs {
		if rec.Submit != nil {
			submits[rec.Submit.ID]++
		}
		if rec.Outcome != nil {
			decisions[rec.Outcome.ID]++
		}
		if rec.Commit != nil {
			decisions[rec.Commit.ID]++
		}
	}
	for _, id := range []change.ID{"ok", "bad", "held", "after"} {
		if n := submits[id] + decisions[id]; n != 1 {
			t.Fatalf("%s folded as %d submits and %d decisions; want one of either", id, submits[id], decisions[id])
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
	r2 := st2.Service().Repo()
	if n := r2.Len(); n != 2 || r2.Head().ID != head {
		t.Fatalf("mainline after restart = %d commits at %s, want root + ok at %s", n, r2.Head().ID, head)
	}
	if got, _ := r2.Head().Snapshot().Read("lib/lib.go"); got != "lib v2" {
		t.Fatalf("lib/lib.go after restart = %q, want ok's lib v2", got)
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

// TestPeriodicSnapshot: with SnapshotEvery the journal is folded while the
// stack serves, once each interval of the service's clock, and Close stops
// the fold before its own.
func TestPeriodicSnapshot(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	m := clock.NewManual(time.Unix(1_700_000_000, 0))
	st, err := OpenStack(stackRepo(), StackConfig{
		Core: core.Config{Workers: 2, Clock: m},
		Addr: "127.0.0.1:0", DataDir: dir, SnapshotEvery: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	folded := func(commits int) {
		t.Helper()
		_, recs, err := store.ReplaySnapshot(store.SnapshotPath(journalPath))
		if err != nil || len(recs) != commits {
			t.Fatalf("fold: %v, %d records; want %d commit records", err, len(recs), commits)
		}
		for _, rec := range recs {
			if rec.Commit == nil {
				t.Fatalf("fold holds %+v, want only commit records", rec)
			}
		}
	}
	submitOver(t, st, "ok", "lib/lib.go", "lib v1", "lib v2")
	decidedOver(t, st, "ok")
	if _, err := os.Stat(store.SnapshotPath(journalPath)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a fold before the first interval: %v", err)
	}
	m.Advance(time.Minute)
	folded(1)
	submitOver(t, st, "ok2", "doc/readme.md", "doc v1", "doc v2")
	decidedOver(t, st, "ok2")
	m.Advance(time.Minute)
	folded(2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := m.Armed(); n != 0 {
		t.Fatalf("%d timers armed after Close, want 0", n)
	}
}

// copyDir copies a data dir's files as kill -9 would leave them: what the
// running service has written so far.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(to, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOutcomesRouteNamesOnlyDurableDecisions polls GET /api/v1/outcomes
// while changes are decided, and after each answer boots a service from a
// copy of the data dir: every decision the answer names is already in the
// reboot.
func TestOutcomesRouteNamesOnlyDurableDecisions(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStack(stackRepo(), StackConfig{Core: core.Config{Workers: 2},
		Addr: "127.0.0.1:0", DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	submitOver(t, st, "c1", "lib/lib.go", "lib v1", "lib v2")
	submitOver(t, st, "c2", "doc/readme.md", "doc v1", "doc v2")
	submitOver(t, st, "c3", "app/main.go", "app v1", "app v2")
	submitOver(t, st, "stale", "lib/lib.go", "lib v0", "lib v3") // rejected: merge conflict
	deadline := time.Now().Add(20 * time.Second)
	for named := 0; named < 4; {
		resp, err := http.Get(st.URL() + "/api/v1/outcomes")
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Outcomes []OutcomeItem }
		err = json.NewDecoder(resp.Body).Decode(&body)
		_ = resp.Body.Close() // fully read
		if err != nil {
			t.Fatal(err)
		}
		crashed := t.TempDir()
		copyDir(t, dir, crashed)
		reboot, err := core.OpenRecovered(stackRepo(), filepath.Join(crashed, "journal.jsonl"), core.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range body.Outcomes {
			got, err := reboot.State(change.ID(o.ID))
			if err != nil || got.State.String() != o.State || string(got.Commit) != o.Commit {
				t.Fatalf("outcomes named %+v, the reboot has %+v (%v)", o, got, err)
			}
		}
		if err := reboot.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		if named = len(body.Outcomes); time.Now().After(deadline) {
			t.Fatalf("only %d of 4 changes decided", named)
		}
	}
}

// TestOutcomesRouteAfterRestart: after one commit, one rejection and a
// restart on the same data dir, GET /api/v1/outcomes?after=0 lists both
// decisions, once each, as the state route answers them.
func TestOutcomesRouteAfterRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := StackConfig{Core: core.Config{Workers: 2}, Addr: "127.0.0.1:0", DataDir: dir}
	st, err := OpenStack(stackRepo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitOver(t, st, "c1", "lib/lib.go", "lib v1", "lib v2")
	submitOver(t, st, "stale", "doc/readme.md", "doc v0", "doc v2") // rejected: merge conflict
	decidedOver(t, st, "c1")
	decidedOver(t, st, "stale")
	if err := st.Close(); err != nil {
		t.Fatal(err)
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
	resp, err := http.Get(st2.URL() + "/api/v1/outcomes?after=0")
	if err != nil {
		t.Fatal(err)
	}
	var page OutcomesResponse
	err = json.NewDecoder(resp.Body).Decode(&page)
	_ = resp.Body.Close() // fully read
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, o := range page.Outcomes {
		sr := stateOver(t, st2, o.ID)
		if _, dup := states[o.ID]; dup || sr.State != o.State || sr.Reason != o.Reason || sr.Commit != o.Commit {
			t.Fatalf("outcomes list %+v (again: %v), the state route %+v", o, dup, sr)
		}
		states[o.ID] = o.State
	}
	if len(states) != 2 || states["c1"] != "committed" || states["stale"] != "rejected" || page.Next != 2 {
		t.Fatalf("outcomes after the restart: %+v", page)
	}
}

// TestCrashAfterFoldKeepsCommits: two acknowledged commits, one journal fold
// while serving, then the data dir is copied as kill -9 would leave it. A
// stack booted from the seed on the copy has both commits on its mainline
// and answers both changes as committed with those commits.
func TestCrashAfterFoldKeepsCommits(t *testing.T) {
	dir, crashed := t.TempDir(), t.TempDir()
	cfg := func(dir string) StackConfig {
		return StackConfig{Core: core.Config{Workers: 2}, Addr: "127.0.0.1:0", DataDir: dir}
	}
	st, err := OpenStack(stackRepo(), cfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	submitOver(t, st, "c1", "lib/lib.go", "lib v1", "lib v2")
	submitOver(t, st, "c2", "doc/readme.md", "doc v1", "doc v2")
	for _, id := range []string{"c1", "c2"} {
		if sr := decidedOver(t, st, id); sr.State != "committed" {
			t.Fatalf("%s = %+v, want committed", id, sr)
		}
	}
	if err := st.Service().SnapshotJournal(); err != nil {
		t.Fatal(err)
	}
	copyDir(t, dir, crashed)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStack(stackRepo(), cfg(crashed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st2.Close(); err != nil {
			t.Error(err)
		}
	})
	r := st2.Service().Repo()
	if n := r.Len(); n != 3 {
		t.Fatalf("mainline after the crash = %d commits, want root + 2", n)
	}
	if got, _ := r.Head().Snapshot().Read("lib/lib.go"); got != "lib v2" {
		t.Fatalf("lib/lib.go after the crash = %q, want lib v2", got)
	}
	for _, id := range []string{"c1", "c2"} {
		sr := stateOver(t, st2, id)
		if sr.State != "committed" {
			t.Fatalf("%s after the crash = %+v, want committed", id, sr)
		}
		if _, err := r.Lookup(repo.CommitID(sr.Commit)); err != nil {
			t.Fatalf("%s names commit %s, not on the mainline: %v", id, sr.Commit, err)
		}
	}
}

// TestSchedCountsDecisionsWithoutPoll: a stack with priority lanes and no
// state poller counts a decision in its lane as it publishes it. One status
// read after c1's committed event shows the lane's commit.
func TestSchedCountsDecisionsWithoutPoll(t *testing.T) {
	st, err := OpenStack(stackRepo(), StackConfig{Core: core.Config{Workers: 2, Sched: sched.Default()},
		Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	feed, unsubscribe := st.Bus().Subscribe(64)
	defer unsubscribe()
	submitOver(t, st, "c1", "lib/lib.go", "lib v1", "lib v2")
	timeout := time.After(10 * time.Second)
	for committed := false; !committed; {
		select {
		case ev := <-feed:
			committed = ev.Type == events.TypeCommitted && ev.Change == "c1"
		case <-timeout:
			t.Fatal("no committed event for c1")
		}
	}
	resp, err := http.Get(st.URL() + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if g := status.Gauges; g["sched_normal_committed"] != 1 || g["sched_normal_pending"] != 0 {
		t.Fatalf("normal lane after c1 committed: committed %v, pending %v",
			g["sched_normal_committed"], g["sched_normal_pending"])
	}
}
