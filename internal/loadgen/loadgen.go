// Package loadgen is the open-loop load harness for the sqd serving path:
// it paces submissions at a fixed target rate regardless of how fast the
// server responds (so a slow server shows up as latency and backlog, not as
// a silently reduced offered rate), mixes in state polls and status reads,
// and reports per-endpoint latency percentiles up to P99.9.
//
// The package deliberately sits OUTSIDE mglint's wallclock policy
// (internal/lint/policy.go): its entire job is measuring real elapsed time
// against a live HTTP server, so injected clocks would defeat the point.
package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mastergreen/internal/metrics"
)

// RequestFunc builds the i-th submission body. The returned id must match
// the "id" field inside body so accepted changes can be polled later.
type RequestFunc func(i int) (id string, body []byte)

// DefaultRequest returns a RequestFunc where every submission creates a
// distinct file under load/, so changes are independent at the file level.
// IDs embed prefix, which callers should salt (e.g. with a start timestamp)
// when driving a long-lived server to keep runs disjoint.
func DefaultRequest(prefix string) RequestFunc {
	return func(i int) (string, []byte) {
		id := fmt.Sprintf("%s-%d", prefix, i)
		body := fmt.Sprintf(`{"id":%q,"author":"loadgen-%d","team":"load",`+
			`"files":[{"path":"load/f-%s.txt","op":"create","content":"content %d"}],"test_plan":true}`,
			id, i%8, id, i)
		return id, []byte(body)
	}
}

// PriorityRequest is DefaultRequest plus scheduling lanes: every
// hotfixEvery-th submission lands in the P0 hotfix lane and every
// bulkEvery-th in the P2 bulk lane with a ten-minute deadline (0 disables a
// lane; P0 wins when both divide i). The lane is embedded in the id so a
// finished run can be tallied per lane afterwards (see Follow).
func PriorityRequest(prefix string, hotfixEvery, bulkEvery int) RequestFunc {
	return func(i int) (string, []byte) {
		lane, extra := "p1", ""
		if hotfixEvery > 0 && i%hotfixEvery == 0 {
			lane, extra = "p0", `,"priority":"P0"`
		} else if bulkEvery > 0 && i%bulkEvery == 0 {
			lane, extra = "p2", `,"priority":"P2","deadline_in_sec":600`
		}
		id := fmt.Sprintf("%s-%s-%d", prefix, lane, i)
		body := fmt.Sprintf(`{"id":%q,"author":"loadgen-%d","team":"load",`+
			`"files":[{"path":"load/f-%s.txt","op":"create","content":"content %d"}],"test_plan":true%s}`,
			id, i%8, id, i, extra)
		return id, []byte(body)
	}
}

// laneOf is the lane of an id PriorityRequest made, "P0", "P1" or "P2"; an
// id without a lane marker is P1.
func laneOf(id string) string {
	switch {
	case strings.Contains(id, "-p0-"):
		return "P0"
	case strings.Contains(id, "-p2-"):
		return "P2"
	}
	return "P1"
}

// SharedClient returns an http.Client tuned for sustained load against one
// host: keep-alives with an idle pool sized to the in-flight bound, so every
// sender reuses a warm connection instead of re-dialing per request.
func SharedClient(maxInFlight int) *http.Client {
	if maxInFlight <= 0 {
		maxInFlight = 64
	}
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        maxInFlight,
			MaxIdleConnsPerHost: maxInFlight,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// Config describes one load run.
type Config struct {
	BaseURL  string        // sqd base URL, e.g. http://127.0.0.1:8080
	Rate     float64       // target submissions per second (open loop)
	Duration time.Duration // measured window
	Warmup   time.Duration // paced at Rate before measuring; excluded from stats

	// MaxInFlight bounds concurrent HTTP requests (default 512). The pacer
	// never blocks on it — excess submissions queue in goroutines, keeping
	// the offered rate honest while capping socket usage.
	MaxInFlight int
	Client      *http.Client // default SharedClient(MaxInFlight)
	Request     RequestFunc  // default DefaultRequest("load")

	PollRate   float64 // state polls per second over accepted ids (0 = none)
	StatusRate float64 // GET /api/v1/status per second (0 = none)
}

// Latency summarizes one endpoint's observed latencies in milliseconds.
type Latency struct {
	Count  int
	MeanMs float64
	P50Ms  float64
	P95Ms  float64
	P99Ms  float64
	P999Ms float64
	MaxMs  float64
}

// String renders the summary as one terminal-friendly line.
func (l Latency) String() string {
	return fmt.Sprintf("n=%d mean=%.2fms p50=%.2f p95=%.2f p99=%.2f p99.9=%.2f max=%.2f",
		l.Count, l.MeanMs, l.P50Ms, l.P95Ms, l.P99Ms, l.P999Ms, l.MaxMs)
}

func summarize(ms []float64) Latency {
	if len(ms) == 0 {
		return Latency{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Latency{
		Count:  len(sorted),
		MeanMs: sum / float64(len(sorted)),
		P50Ms:  metrics.Percentile(sorted, 50),
		P95Ms:  metrics.Percentile(sorted, 95),
		P99Ms:  metrics.Percentile(sorted, 99),
		P999Ms: metrics.Percentile(sorted, 99.9),
		MaxMs:  sorted[len(sorted)-1],
	}
}

// Result is one completed load run. AcceptedIDs covers warmup and measured
// phases (every 202 is a durability promise the caller may audit with
// Follow); all other fields cover only the measured window.
type Result struct {
	Offered   int // submissions paced into the measured window
	Accepted  int // 202
	Throttled int // 429 (admission backpressure)
	Errors    int // transport errors or unexpected statuses

	RetryAfterMean float64 // mean Retry-After seconds across 429s

	StatusReads int // 200 status reads
	StatusShed  int // 503 status reads (overload degradation)
	StatePolls  int // 200 state polls

	Submit     Latency
	StatePoll  Latency
	StatusRead Latency

	ElapsedSec     float64
	OfferedPerSec  float64
	AcceptedPerSec float64

	AcceptedIDs []string
}

// Sustained reports accepted submissions per minute — the headline
// throughput number.
func (r *Result) Sustained() float64 { return r.AcceptedPerSec * 60 }

type runState struct {
	cfg    Config
	sem    chan struct{}
	wg     sync.WaitGroup
	warmup atomic.Bool

	accepted  atomic.Int64
	throttled atomic.Int64
	errs      atomic.Int64
	retrySum  atomic.Int64 // Retry-After seconds summed across 429s

	statusOK   atomic.Int64
	statusShed atomic.Int64
	stateOK    atomic.Int64

	mu       sync.Mutex
	submitMs []float64
	stateMs  []float64
	statusMs []float64
	idsByNum []string // accepted ids, warmup included
}

// Run executes one load run. It returns an error only when the run cannot
// start (bad config, unhealthy server); per-request failures are counted in
// the Result instead.
func Run(cfg Config) (*Result, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadgen: BaseURL required")
	}
	if cfg.Rate <= 0 {
		return nil, errors.New("loadgen: Rate must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("loadgen: Duration must be positive")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 512
	}
	if cfg.Client == nil {
		cfg.Client = SharedClient(cfg.MaxInFlight)
	}
	if cfg.Request == nil {
		cfg.Request = DefaultRequest("load")
	}

	resp, err := cfg.Client.Get(cfg.BaseURL + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("loadgen: service not reachable at %s: %w", cfg.BaseURL, err)
	}
	drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: service not healthy at %s: status %d", cfg.BaseURL, resp.StatusCode)
	}

	g := &runState{cfg: cfg, sem: make(chan struct{}, cfg.MaxInFlight)}

	seq := 0
	if cfg.Warmup > 0 {
		g.warmup.Store(true)
		seq = g.pace(seq, cfg.Warmup)
		g.wg.Wait()
		g.warmup.Store(false)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	if cfg.PollRate > 0 {
		readers.Add(1)
		go g.pollLoop(stop, &readers)
	}
	if cfg.StatusRate > 0 {
		readers.Add(1)
		go g.statusLoop(stop, &readers)
	}

	start := time.Now()
	end := g.pace(seq, cfg.Duration)
	g.wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	readers.Wait()

	g.mu.Lock()
	defer g.mu.Unlock()
	res := &Result{
		Offered:     end - seq,
		Accepted:    int(g.accepted.Load()),
		Throttled:   int(g.throttled.Load()),
		Errors:      int(g.errs.Load()),
		StatusReads: int(g.statusOK.Load()),
		StatusShed:  int(g.statusShed.Load()),
		StatePolls:  int(g.stateOK.Load()),
		Submit:      summarize(g.submitMs),
		StatePoll:   summarize(g.stateMs),
		StatusRead:  summarize(g.statusMs),
		ElapsedSec:  elapsed.Seconds(),
		AcceptedIDs: append([]string(nil), g.idsByNum...),
	}
	if res.Throttled > 0 {
		res.RetryAfterMean = float64(g.retrySum.Load()) / float64(res.Throttled)
	}
	if res.ElapsedSec > 0 {
		res.OfferedPerSec = float64(res.Offered) / res.ElapsedSec
		res.AcceptedPerSec = float64(res.Accepted) / res.ElapsedSec
	}
	return res, nil
}

// pace schedules submissions seq, seq+1, ... at cfg.Rate for d, spawning one
// goroutine per submission so a slow server never slows the offered rate.
// Returns the next unused sequence number.
func (g *runState) pace(seq int, d time.Duration) int {
	interval := time.Duration(float64(time.Second) / g.cfg.Rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	start := time.Now()
	deadline := start.Add(d)
	for next := start; next.Before(deadline); next = next.Add(interval) {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		i := seq
		seq++
		g.wg.Add(1)
		go g.submit(i)
	}
	return seq
}

func (g *runState) submit(i int) {
	defer g.wg.Done()
	g.sem <- struct{}{}
	defer func() { <-g.sem }()

	warm := g.warmup.Load()
	id, body := g.cfg.Request(i)
	start := time.Now()
	resp, err := g.cfg.Client.Post(g.cfg.BaseURL+"/api/v1/changes", "application/json", bytes.NewReader(body))
	ms := float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		if !warm {
			g.errs.Add(1)
		}
		return
	}
	retryAfter := 0
	if resp.StatusCode == http.StatusTooManyRequests {
		retryAfter, _ = parseSeconds(resp.Header.Get("Retry-After"))
	}
	drain(resp)
	switch resp.StatusCode {
	case http.StatusAccepted:
		g.mu.Lock()
		g.idsByNum = append(g.idsByNum, id)
		if !warm {
			g.submitMs = append(g.submitMs, ms)
		}
		g.mu.Unlock()
		if !warm {
			g.accepted.Add(1)
		}
	case http.StatusTooManyRequests:
		if !warm {
			g.throttled.Add(1)
			g.retrySum.Add(int64(retryAfter))
			g.mu.Lock()
			g.submitMs = append(g.submitMs, ms)
			g.mu.Unlock()
		}
	default:
		if !warm {
			g.errs.Add(1)
		}
	}
}

// pollLoop issues state reads over accepted ids round-robin at PollRate.
func (g *runState) pollLoop(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(time.Duration(float64(time.Second) / g.cfg.PollRate))
	defer tick.Stop()
	i := 0
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		g.mu.Lock()
		var id string
		if n := len(g.idsByNum); n > 0 {
			id = g.idsByNum[i%n]
			i++
		}
		g.mu.Unlock()
		if id == "" {
			continue
		}
		start := time.Now()
		resp, err := g.cfg.Client.Get(g.cfg.BaseURL + "/api/v1/changes/" + id)
		ms := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			g.errs.Add(1)
			continue
		}
		drain(resp)
		if resp.StatusCode == http.StatusOK {
			g.stateOK.Add(1)
			g.mu.Lock()
			g.stateMs = append(g.stateMs, ms)
			g.mu.Unlock()
		} else {
			g.errs.Add(1)
		}
	}
}

// statusLoop issues dashboard-style status reads at StatusRate, counting
// 503 sheds separately: under overload those are expected degradation, not
// errors.
func (g *runState) statusLoop(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(time.Duration(float64(time.Second) / g.cfg.StatusRate))
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		start := time.Now()
		resp, err := g.cfg.Client.Get(g.cfg.BaseURL + "/api/v1/status")
		ms := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			g.errs.Add(1)
			continue
		}
		drain(resp)
		switch resp.StatusCode {
		case http.StatusOK:
			g.statusOK.Add(1)
			g.mu.Lock()
			g.statusMs = append(g.statusMs, ms)
			g.mu.Unlock()
		case http.StatusServiceUnavailable:
			g.statusShed.Add(1)
		default:
			g.errs.Add(1)
		}
	}
}

// Tally counts the decisions of a set of accepted changes.
type Tally struct{ Committed, Rejected, Undecided int }

// Decisions is a Tally of a run's accepted changes, overall and per lane
// (keyed "P0", "P1" and "P2", each present; see PriorityRequest).
type Decisions struct {
	Tally
	Lanes map[string]*Tally
}

// Follow reads the service's decision log from its start, page after page
// of GET /api/v1/outcomes, each read waiting on the server for the next
// decision, until every id is decided or the deadline passes: the audit of
// the 202 durability promise (no accepted change may vanish). A shed read
// (503) is retried after its Retry-After; any other failed read is an error.
func Follow(client *http.Client, baseURL string, ids []string, deadline time.Time) (Decisions, error) {
	d := Decisions{Lanes: map[string]*Tally{"P0": {}, "P1": {}, "P2": {}}}
	undecided := make(map[string]*Tally, len(ids)) // id → its lane's tally
	for _, id := range ids {
		undecided[id] = d.Lanes[laneOf(id)]
	}
	var err error
	for next := 0; len(undecided) > 0 && err == nil; {
		var page outcomesPage
		page, err = readOutcomes(client, baseURL, next, deadline)
		for _, o := range page.Outcomes {
			if t := undecided[o.ID]; t != nil {
				delete(undecided, o.ID)
				if o.State == "committed" {
					t.Committed++
				} else {
					t.Rejected++
				}
			}
		}
		next = page.Next
		if len(page.Outcomes) == 0 && !time.Now().Before(deadline) {
			break
		}
	}
	for _, t := range undecided {
		t.Undecided++
	}
	for _, t := range d.Lanes {
		d.Committed, d.Rejected, d.Undecided = d.Committed+t.Committed, d.Rejected+t.Rejected, d.Undecided+t.Undecided
	}
	return d, err
}

// outcomesPage is the part of the outcomes route's reply Follow reads.
type outcomesPage struct {
	Outcomes []struct{ ID, State string } `json:"outcomes"`
	Next     int                          `json:"next"`
}

// readOutcomes reads the page after seq after, waiting for a decision until
// the deadline but at most 5 s (under SharedClient's 10 s timeout). A shed
// read waits out its Retry-After, within the deadline, for an empty page.
func readOutcomes(client *http.Client, baseURL string, after int, deadline time.Time) (outcomesPage, error) {
	wait := min(max(time.Until(deadline), 0), 5*time.Second).Round(time.Millisecond)
	page := outcomesPage{Next: after}
	resp, err := client.Get(fmt.Sprintf("%s/api/v1/outcomes?after=%d&limit=1000&wait=%s", baseURL, after, wait))
	if err != nil {
		return page, err
	}
	defer drain(resp)
	secs, retry := parseSeconds(resp.Header.Get("Retry-After"))
	switch {
	case resp.StatusCode == http.StatusOK:
		err = json.NewDecoder(resp.Body).Decode(&page)
	case resp.StatusCode == http.StatusServiceUnavailable && retry:
		time.Sleep(min(time.Duration(secs)*time.Second, max(time.Until(deadline), 0)))
	default:
		err = fmt.Errorf("outcomes: status %d", resp.StatusCode)
	}
	return page, err
}

// drain empties and closes a response body so the keep-alive connection goes
// back to the pool.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	_ = resp.Body.Close()
}

// parseSeconds parses a small non-negative decimal like a Retry-After value.
func parseSeconds(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
		if n > 1<<20 {
			return 0, false
		}
	}
	return n, true
}
