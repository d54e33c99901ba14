package api

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
)

const stackBusCapacity = 1024

// StackConfig is the deployment of one serving SubmitQueue.
type StackConfig struct {
	Core core.Config // its Events is replaced by the stack's bus
	Addr string      // TCP listen address; "127.0.0.1:0" picks a free port
	// DataDir holds journal.jsonl and its snapshots (empty: in-memory only).
	DataDir       string
	AdmissionCap  int           // > 0: see EnableAdmission
	StatusRefresh time.Duration // > 0: see StartStatusRefresher
	// SnapshotEvery > 0, with DataDir, also folds the journal this often
	// while serving, so replay after a crash stays proportional to live state.
	SnapshotEvery time.Duration
}

// Stack is SubmitQueue deployed as in §7.1: a core service, optionally
// durable, behind the HTTP API on a bound listener.
type Stack struct {
	svc         *core.Service
	bus         *events.Bus
	ln          net.Listener
	hs          *http.Server
	stopRefresh func()
	stopSnap    chan struct{}
	wg          sync.WaitGroup // the serve goroutine and the periodic fold
}

// OpenStack binds cfg.Addr, opens the service — recovered from cfg.DataDir
// when it holds state, from seed otherwise — starts it and serves the API.
// A bind error is returned before any durable state is touched.
func OpenStack(seed *repo.Repo, cfg StackConfig) (*Stack, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("api: listen: %w", err)
	}
	s := &Stack{bus: events.NewBus(stackBusCapacity), ln: ln, stopRefresh: func() {},
		stopSnap: make(chan struct{})}
	cfg.Core.Events = s.bus
	if s.svc, err = openService(seed, cfg); err != nil {
		_ = ln.Close() // nothing was served on it
		return nil, err
	}
	s.svc.Start()
	srv := NewServer(s.svc)
	srv.SetEvents(s.bus)
	if cfg.AdmissionCap > 0 {
		srv.EnableAdmission(cfg.AdmissionCap)
	}
	if cfg.StatusRefresh > 0 {
		s.stopRefresh = srv.StartStatusRefresher(cfg.StatusRefresh)
	}
	if cfg.DataDir != "" && cfg.SnapshotEvery > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(cfg.SnapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-s.stopSnap:
					return
				case <-t.C:
					if err := s.svc.SnapshotJournal(); err != nil {
						log.Printf("api: journal snapshot: %v", err)
					}
				}
			}
		}()
	}
	s.hs = &http.Server{Handler: srv}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once Close runs
	}()
	return s, nil
}

// openService recovers the service from seed and cfg.DataDir/journal.jsonl,
// or without a data dir starts it from seed.
func openService(seed *repo.Repo, cfg StackConfig) (*core.Service, error) {
	if cfg.DataDir == "" {
		return core.NewService(seed, cfg.Core), nil
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("api: data dir: %w", err)
	}
	svc, err := core.OpenRecovered(seed, filepath.Join(cfg.DataDir, "journal.jsonl"), cfg.Core)
	if err != nil {
		return nil, fmt.Errorf("api: recovering journal: %w", err)
	}
	return svc, nil
}

// Service returns the running service.
func (s *Stack) Service() *core.Service { return s.svc }

// Bus returns the event bus the service publishes to and the API serves.
func (s *Stack) Bus() *events.Bus { return s.bus }

// URL returns the API's base URL on the bound address.
func (s *Stack) URL() string { return "http://" + s.ln.Addr().String() }

// Close is the one shutdown order: stop serving, stop the refresher, stop and
// join the periodic fold, stop the service (aborting its builds), then fold
// the journal and close it (no-ops without a data dir). Call Close once.
func (s *Stack) Close() error {
	_ = s.hs.Close() // its only error is the listener's, and Serve returns all the same
	s.stopRefresh()
	close(s.stopSnap)
	s.wg.Wait()
	s.svc.Stop()
	return errors.Join(s.svc.SnapshotJournal(), s.svc.CloseJournal())
}
