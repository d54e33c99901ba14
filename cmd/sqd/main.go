// Command sqd runs SubmitQueue as an HTTP service over an in-memory
// monorepo, mirroring the paper's API + core service deployment (§7.1):
// stateless HTTP frontend, planner-driven core, a status dashboard at /, an
// event feed at /api/v1/events, and optional MySQL-style durability via an
// append-only journal. The deployment is api.Stack: sqd
// turns its flags into an api.StackConfig, opens the stack, and on SIGTERM
// or interrupt closes it and logs Service.Gauges() — every layer's
// counters — as one "name=value …" line.
//
// Usage:
//
//	sqd [-addr :8080] [-workers 8] [-epoch 250ms] [-shards 1] [-sched]
//	    [-data DIR] [-snapshot-interval 5m] [-admission-cap 1000]
//	    [-status-refresh 250ms]
//
// The startup log names the bound address (-addr 127.0.0.1:0 picks a free
// port); a port already taken fails the start before any state is opened.
// The planner loop runs on events, so -epoch is only its fallback poll. With
// -data, the journal DIR/journal.jsonl, the only durable state, records
// every submission, commit and rejection before it is acknowledged: a
// restart on DIR, even after kill -9, replays its commits onto the seed and
// recovers pending changes. Shutdown folds it into DIR/journal.jsonl.snap.
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
	"os"
	"os/signal"
	"syscall"
	"time"

	"mastergreen/internal/api"
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
	var cfg api.StackConfig
	flag.StringVar(&cfg.Addr, "addr", ":8080", "listen address (127.0.0.1:0 picks a free port; the startup log names it)")
	flag.IntVar(&cfg.Core.Workers, "workers", 8, "concurrent builds")
	flag.DurationVar(&cfg.Core.Epoch, "epoch", 250*time.Millisecond, "fallback poll of the event-driven planner loop (adopts new submissions, collects speculative results)")
	flag.StringVar(&cfg.DataDir, "data", "", "directory for durable state (empty = in-memory only)")
	flag.IntVar(&cfg.Core.Shards, "shards", 1, "planner engines the conflict-graph components are spread over")
	flag.DurationVar(&cfg.SnapshotEvery, "snapshot-interval", 0, "with -data: also fold the journal into a snapshot this often while running (0 = shutdown is the only fold)")
	flag.IntVar(&cfg.AdmissionCap, "admission-cap", 0, "bound the pending queue; excess submits get 429 + Retry-After (0 = unbounded)")
	flag.DurationVar(&cfg.StatusRefresh, "status-refresh", 250*time.Millisecond, "background status snapshot rebuild interval (0 = no background rebuild: the first request after the 250ms cache expires rebuilds it)")
	schedOn := flag.Bool("sched", false, "enable priority-lane scheduling (P0 hotfix preemption, deadline aging, per-class gauges)")
	flag.Parse()
	if *schedOn {
		cfg.Core.Sched = sched.Default()
	}

	st, err := api.OpenStack(demoRepo(), cfg)
	if err != nil {
		log.Fatalf("sqd: %v", err)
	}
	svc := st.Service()
	log.Printf("sqd: SubmitQueue listening on %s (%d workers, %v epoch; mainline %d commits, %d pending)",
		st.URL(), cfg.Core.Workers, cfg.Core.Epoch, svc.Repo().Len(), svc.PendingCount())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("sqd: shutting down")
	err = st.Close()
	log.Printf("sqd: %s", svc.Gauges())
	if err != nil {
		log.Fatalf("sqd: %v", err)
	}
}
