// Command sqd runs SubmitQueue as an HTTP service over an in-memory
// monorepo, mirroring the paper's API + core service deployment (§7.1):
// stateless HTTP frontend, planner-driven core, a status dashboard at /, an
// event feed at /api/v1/events, and optional MySQL-style durability via an
// append-only journal plus repo snapshot.
//
// Usage:
//
//	sqd [-addr :8080] [-workers 8] [-epoch 250ms] [-shards 1] [-sched]
//	    [-data DIR] [-snapshot-interval 5m] [-admission-cap 1000]
//	    [-status-refresh 250ms]
//
// -shards spreads the conflict graph's components over that many planner
// engines; -sched turns on the priority lanes (P0 hotfix preemption,
// deadline aging, per-lane gauges). The planner loop runs on events — a
// decisive build's end wakes its engine, a decision wakes the coordinator —
// so -epoch is only the fallback poll: it paces new submissions' adoption,
// speculative results, sched aging and reliability epochs.
// With -data, the service journals every submission and outcome to
// DIR/journal.jsonl; on shutdown it saves the repo to DIR/repo.json and folds
// the journal into DIR/journal.jsonl.snap, and restarting with the same
// directory recovers pending changes. -snapshot-interval folds the journal
// the same way periodically while running, so restart replay stays
// proportional to live state even after a crash.
// -admission-cap turns on backpressure (429 + Retry-After once the pending
// queue fills, 503 dashboard sheds near capacity). /api/v1/status is served
// from a snapshot cached for 250ms; -status-refresh rebuilds it in the
// background at that interval, and with 0 the first request after the cache
// expires rebuilds it. On SIGTERM or interrupt the service logs
// Service.Gauges() — every layer's counters — as one "name=value …" line.
//
// Submit changes with:
//
//	curl -X POST localhost:8080/api/v1/changes -d '{
//	  "id": "c1", "author": "alice",
//	  "files": [{"path": "lib/lib.go", "op": "modify",
//	             "base_content": "lib v1", "content": "lib v2"}]}'
//	curl localhost:8080/api/v1/changes/c1
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mastergreen/internal/api"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
	"mastergreen/internal/sched"
)

func demoRepo() *repo.Repo {
	return repo.New(map[string]string{
		"app/BUILD":     "target app srcs=main.go deps=//lib:lib",
		"app/main.go":   "app v1",
		"lib/BUILD":     "target lib srcs=lib.go",
		"lib/lib.go":    "lib v1",
		"doc/BUILD":     "target doc srcs=readme.md",
		"doc/readme.md": "# demo monorepo",
	})
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 8, "concurrent builds")
	epoch := flag.Duration("epoch", 250*time.Millisecond, "fallback poll of the event-driven planner loop (adopts new submissions, collects speculative results)")
	dataDir := flag.String("data", "", "directory for durable state (empty = in-memory only)")
	shards := flag.Int("shards", 1, "planner engines the conflict-graph components are spread over")
	snapshotEvery := flag.Duration("snapshot-interval", 0, "with -data: also fold the journal into a snapshot this often while running (0 = shutdown is the only fold)")
	admissionCap := flag.Int("admission-cap", 0, "bound the pending queue; excess submits get 429 + Retry-After (0 = unbounded)")
	statusRefresh := flag.Duration("status-refresh", 250*time.Millisecond, "background status snapshot rebuild interval (0 = no background rebuild: the first request after the 250ms cache expires rebuilds it)")
	schedOn := flag.Bool("sched", false, "enable priority-lane scheduling (P0 hotfix preemption, deadline aging, per-class gauges)")
	flag.Parse()

	bus := events.NewBus(1024)
	cfg := core.Config{Workers: *workers, Epoch: *epoch, Events: bus, Shards: *shards}
	if *schedOn {
		cfg.Sched = sched.Default()
	}

	var svc *core.Service
	var repoPath string
	r := demoRepo()
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("sqd: data dir: %v", err)
		}
		repoPath = filepath.Join(*dataDir, "repo.json")
		if f, err := os.Open(repoPath); err == nil {
			loaded, lerr := repo.Load(f)
			_ = f.Close()
			if lerr != nil {
				log.Fatalf("sqd: loading repo snapshot: %v", lerr)
			}
			r = loaded
			log.Printf("sqd: recovered repo with %d commits", r.Len())
		}
		journalPath := filepath.Join(*dataDir, "journal.jsonl")
		s, err := core.OpenRecovered(r, journalPath, cfg)
		if err != nil {
			log.Fatalf("sqd: recovering journal: %v", err)
		}
		svc = s
		log.Printf("sqd: journal %s (pending recovered: %d)", journalPath, svc.PendingCount())
	} else {
		svc = core.NewService(r, cfg)
	}

	svc.Start()
	srv := api.NewServer(svc)
	srv.SetEvents(bus)
	if *admissionCap > 0 {
		srv.EnableAdmission(*admissionCap)
	}
	if *statusRefresh > 0 {
		stop := srv.StartStatusRefresher(*statusRefresh)
		defer stop()
	}

	// Periodic journal snapshots keep restart replay proportional to live
	// state instead of total history (only meaningful with -data).
	snapDone := make(chan struct{})
	if *snapshotEvery > 0 && *dataDir != "" {
		go func() {
			t := time.NewTicker(*snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-snapDone:
					return
				case <-t.C:
					if err := svc.SnapshotJournal(1000); err != nil {
						log.Printf("sqd: journal snapshot: %v", err)
					}
				}
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	go func() {
		log.Printf("sqd: SubmitQueue listening on %s (%d workers, %v epoch)", *addr, *workers, *epoch)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("sqd: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("sqd: shutting down")
	close(snapDone)
	_ = httpSrv.Close()
	svc.Stop()
	log.Printf("sqd: %s", svc.Gauges())
	if repoPath != "" {
		if err := svc.Repo().SaveFile(repoPath); err != nil {
			log.Fatalf("sqd: saving repo: %v", err)
		}
		if err := svc.SnapshotJournal(1000); err != nil {
			log.Printf("sqd: journal snapshot: %v", err)
		}
		if err := svc.CloseJournal(); err != nil {
			log.Printf("sqd: closing journal: %v", err)
		}
		log.Printf("sqd: state persisted to %s", *dataDir)
	}
}
