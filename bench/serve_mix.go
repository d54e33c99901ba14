package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mastergreen/internal/api"
	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/metrics"
	"mastergreen/internal/repo"
)

// serve_mix: two HTTP clients in lockstep waves against the full sqd wiring
// (api.Server on a localhost listener, admission, status refresher, journal
// with group commit, four planner shards). A wave is 32 submits, 96 state
// reads and 4 status reads split across the two clients; the harness then
// calls ProcessAll. Pending never exceeds one wave, so conflict analysis and
// speculation do little and the serving tier does most of the work. Reads
// run beside writes on the same status map and pools, so a submit-path gain
// paid for by the read path shows.
const (
	smSubtrees   = 64
	smShards     = 4
	smWorkers    = 8
	smAdmission  = 4096
	smClients    = 2
	smWaveSubmit = 32 // per wave, split across the clients
	smReadsPer   = 3  // state reads per submit
	smStatusPer  = 2  // status reads per client per wave
	// smRate is waves per second of --seconds (fixes the wave count): what the
	// build box sustains over back-to-back runs.
	smRate     = 17.5
	smSegments = 12
)

// serveStack is one constructed serving stack and what its clients observed.
type serveStack struct {
	p       params
	svc     *core.Service
	bus     *events.Bus
	pred    *countingPredictor // traced runs only
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve returns
	base    string
	dir     string
	stop    func() // status refresher
	clients [smClients]*http.Client
	initial map[string]string
	edits   []edit

	postAt []time.Time // per edit: when its POST was sent
	postMs []float64   // per edit: client-observed POST time
	httpOK int         // requests answered 2xx (summed after each wave)

	mu        sync.Mutex
	seen      []string // per edit: last state read over HTTP
	httpBad   int
	throttled int
	problem   []string
}

func (s *serveStack) close() {
	_ = s.hs.Close()
	<-s.served
	s.stop()
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	_ = s.svc.CloseJournal()
	_ = os.RemoveAll(s.dir)
}

// buildDir is where the benchmark keeps everything it writes: inside the
// checkout, beside the build output.
func buildDir() string {
	dir := ".bench_build"
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

func setupServeMix(p params, waves int) (*serveStack, error) {
	s := &serveStack{p: p}
	s.initial = benchFiles(p.seed, smSubtrees)
	s.edits = genEdits(p.seed, "s", waves*smWaveSubmit, smSubtrees)
	s.postAt = make([]time.Time, len(s.edits))
	s.postMs = make([]float64, len(s.edits))
	s.seen = make([]string, len(s.edits))

	// The journal is a real file and its fsyncs are real.
	dir, err := os.MkdirTemp(buildDir(), "journal-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	s.bus = events.NewBus(1024)
	var cfg core.Config
	s.pred, cfg = withTracedPredictor(p, core.Config{
		Workers: smWorkers, Shards: smShards, Events: s.bus,
		Runner: newStepRunner(0, p.commitBroken),
	})
	s.svc, err = core.OpenRecovered(repo.New(s.initial), filepath.Join(dir, "journal.jsonl"), cfg)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	srv := api.NewServer(s.svc)
	srv.SetEvents(s.bus)
	srv.EnableAdmission(smAdmission)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.svc.CloseJournal()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	s.stop = srv.StartStatusRefresher(250 * time.Millisecond)
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: srv}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns when close() calls hs.Close
	}()
	for i := range s.clients {
		s.clients[i] = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		}
	}
	return s, nil
}

func (s *serveStack) bad(status int, format string, args ...interface{}) {
	s.mu.Lock()
	s.httpBad++
	if status == http.StatusTooManyRequests {
		s.throttled++
	}
	if len(s.problem) < 10 {
		s.problem = append(s.problem, fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
}

// do issues one request and leaves the body of a 2xx reply in buf; anything
// else is counted as a failed operation.
func (s *serveStack) do(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) bool {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		s.bad(0, "%s %s: %v", method, url, err)
		return false
	}
	resp, err := c.Do(req)
	if err != nil {
		s.bad(0, "%s %s: %v", method, url, err)
		return false
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode/100 != 2 {
		s.bad(resp.StatusCode, "%s %s: status %d err %v", method, url, resp.StatusCode, err)
		return false
	}
	return true
}

// readState polls one change and remembers the state the API reported.
func (s *serveStack) readState(c *http.Client, idx int, buf *bytes.Buffer) bool {
	e := s.edits[idx]
	if !s.do(c, http.MethodGet, s.base+"/api/v1/changes/"+e.id, nil, buf) {
		return false
	}
	var st api.StateResponse
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil || st.ID != e.id {
		s.bad(0, "GET %s: bad body %q", e.id, buf.String())
		return false
	}
	s.mu.Lock()
	s.seen[idx] = st.State
	s.mu.Unlock()
	return true
}

// clientWave is client k's half of wave w: 16 submits, each followed by
// three state reads of the previous wave's changes (all decided by then),
// and two status reads. It returns the requests answered 2xx.
func (s *serveStack) clientWave(k, w, parent int) int {
	c := s.clients[k]
	tr := s.p.tr
	var buf bytes.Buffer
	ok := 0
	count := func(good bool) {
		if good {
			ok++
		}
	}
	half := smWaveSubmit / smClients
	for j := 0; j < half; j++ {
		idx := w*smWaveSubmit + k*half + j
		e := s.edits[idx]
		body := e.submitBody()
		start := time.Now()
		s.postAt[idx] = start
		sp := tr.begin("http.POST changes", e.id, parent)
		count(s.do(c, http.MethodPost, s.base+"/api/v1/changes", body, &buf))
		tr.end(sp)
		s.postMs[idx] = ms(time.Since(start))
		for r := 0; r < smReadsPer && w > 0; r++ {
			prev := (w-1)*smWaveSubmit + (k*half+j+r*half)%smWaveSubmit
			sp := tr.begin("http.GET change", s.edits[prev].id, parent)
			count(s.readState(c, prev, &buf))
			tr.end(sp)
		}
		if j%(half/smStatusPer) == half/smStatusPer-1 {
			sp := tr.begin("http.GET status", "", parent)
			count(s.do(c, http.MethodGet, s.base+"/api/v1/status", nil, &buf))
			tr.end(sp)
		}
	}
	return ok
}

// wave runs both clients' halves side by side, then decides the wave. It
// returns the wall time of the HTTP phase alone.
func (s *serveStack) wave(ctx context.Context, w, parent int) (time.Duration, error) {
	start := time.Now()
	var wg sync.WaitGroup
	var done [smClients]int
	for k := 0; k < smClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			done[k] = s.clientWave(k, w, parent)
		}(k)
	}
	wg.Wait()
	httpTime := time.Since(start)
	for _, n := range done {
		s.httpOK += n
	}
	sp := s.p.tr.begin("core.ProcessAll", "", parent)
	err := s.svc.ProcessAll(ctx)
	s.p.tr.end(sp)
	return httpTime, err
}

func runServeMix(p params) (*result, error) {
	r := newResult(p)
	measured := p.count(smRate, 6)
	warm := warmUp(measured, 2)
	expected := time.Duration(float64(warm+measured) / smRate * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 3*expected+15*time.Second)
	defer cancel()

	start := time.Now()
	s, err := setupServeMix(p, warm+measured)
	if err != nil {
		return nil, err
	}
	defer s.close()
	for w := 0; w < warm; w++ {
		if _, err := s.wave(ctx, w, -1); err != nil {
			return nil, fmt.Errorf("serve_mix warm-up: %w", err)
		}
	}
	r.e2e["setup_s"] = time.Since(start).Seconds()

	var stages *stageWatch
	if p.tr != nil {
		stages = watchStages(s.bus, p.tr)
	}
	base := s.svc.OutcomeCount()
	before := readCounters(s.svc, s.bus, s.pred)
	okBefore := s.httpOK
	sec := newSection(measured*smWaveSubmit, smSegments)
	root := p.tr.begin("serve_mix.measured", "", -1)
	sec.begin()
	var httpTime time.Duration
	var runErr error
	waves := warm
	for ; waves < warm+measured && runErr == nil; waves++ {
		ht, err := s.wave(ctx, waves, root)
		httpTime += ht
		if err != nil {
			runErr = err
		} else if pending := s.svc.PendingCount(); pending > 4*smWaveSubmit {
			// ProcessAll returned with a backlog: fail the run, do not time it.
			runErr = fmt.Errorf("%w: %d pending after a wave", errAborted, pending)
		}
		sec.note(s.svc.OutcomeCount() - base)
	}
	sec.end(s.svc.OutcomeCount() - base)
	p.tr.end(root)
	after := readCounters(s.svc, s.bus, s.pred)
	requests := s.httpOK - okBefore
	if stages != nil {
		stages.stop(r.layer)
	}

	// The last wave's changes have not been read back yet; read them now so
	// every change's final state was observed through the API.
	submitted := waves * smWaveSubmit
	var buf bytes.Buffer
	for idx := submitted - smWaveSubmit; idx < submitted; idx++ {
		if s.readState(s.clients[0], idx, &buf) {
			s.httpOK++
		}
	}

	outs := s.svc.Outcomes()
	section := outs[base:]
	idxOf := make(map[string]int, submitted)
	for i := 0; i < submitted; i++ {
		idxOf[s.edits[i].id] = i
	}
	var turnaround []float64
	for _, o := range section {
		turnaround = append(turnaround, ms(o.At.Sub(s.postAt[idxOf[string(o.ID)]])))
	}
	posts := s.postMs[warm*smWaveSubmit : submitted]
	fillLive(r, sec, section, before, after, true)
	// POST sent to decision. Under lockstep waves this is about one wave's
	// duration: it moves with decided_per_s and adds the split between the
	// HTTP phase and ProcessAll.
	fillTurnaround(r, turnaround)
	r.notes["requests_per_s"] = fmt.Sprintf("%.1f", ratio(float64(requests), httpTime.Seconds()))
	r.notes["submit_p50_ms"] = fmt.Sprintf("%.4f", metrics.Percentile(posts, 50))
	r.notes["journal_dir"] = s.dir

	r.attempted = s.httpOK + s.httpBad
	r.failed += s.httpBad
	r.problems = append(r.problems, s.problem...)
	pending := submitted - len(outs)
	if runErr != nil {
		r.fail(pending, "serve_mix: %v", runErr)
	}
	// What the API reported must be what the service decided, and final.
	final := make(map[string]change.State, len(outs))
	for _, o := range outs {
		final[string(o.ID)] = o.State
	}
	for i := 0; i < submitted && runErr == nil; i++ {
		want, decided := final[s.edits[i].id]
		if !decided || s.seen[i] != want.String() {
			r.fail(1, "serve_mix: API reported %q for %s, service decided %v (%v)", s.seen[i], s.edits[i].id, want, decided)
		}
	}
	order := checkDecisions(r, s.initial, s.edits[:submitted], decisionsOf(s.svc, outs), pending, true,
		s.svc.Repo().Head().Snapshot().Range)
	// Two concurrent clients may reorder commits between runs but must not
	// change which changes land.
	r.hash, r.hashKind = hashSet(order), "set"

	if p.tr != nil {
		fillServeLayers(r, s, p.tr, sec, section, before, after, requests, httpTime, posts)
	}
	return r, nil
}
