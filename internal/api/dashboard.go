package api

import (
	"cmp"
	"context"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"strconv"
	"time"

	"mastergreen/internal/events"
	"mastergreen/internal/metrics"
	"mastergreen/internal/planner"
)

// SetEvents attaches an event bus, enabling GET /api/v1/events and the
// live portion of the status page (the role cycle.js plays in §7.1).
func (s *Server) SetEvents(b *events.Bus) { s.events = b }

// EventsResponse is the JSON reply of the polling events endpoint.
type EventsResponse struct {
	Events  []events.Event `json:"events"`
	LastSeq int64          `json:"last_seq"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.events == nil {
		writeError(w, http.StatusNotFound, "events not enabled")
		return
	}
	if s.shedRead(w) {
		return
	}
	since, ok := queryInt(r.URL.Query().Get("since"), 0, math.MinInt)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad since: want an event seq")
		return
	}
	writeJSON(w, http.StatusOK, EventsResponse{
		Events:  s.events.Since(int64(since)),
		LastSeq: s.events.LastSeq(),
	})
}

// OutcomeItem is one entry of the outcomes listing.
type OutcomeItem struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Reason string `json:"reason,omitempty"`
	Commit string `json:"commit,omitempty"`
}

// OutcomesResponse is one page of the decision log: the decisions after the
// request's seq, in decision order, and the seq to ask after next.
type OutcomesResponse struct {
	Outcomes []OutcomeItem `json:"outcomes"`
	Next     int           `json:"next"`
}

// A page holds outcomesLimit decisions when the request names no limit, and
// never more than outcomesMaxLimit; a read waits at most outcomesMaxWait.
const outcomesLimit, outcomesMaxLimit, outcomesMaxWait = 100, 1000, 30 * time.Second

// handleOutcomes serves GET /api/v1/outcomes?after=SEQ&limit=N&wait=DUR: up
// to N published (so durable) decisions after seq SEQ (the first decision has
// seq 1; after defaults to 0), copying only the page. A read that would find
// none waits up to DUR (a Go duration, ≤ 30s, on the service clock) for the
// next one; when DUR ends or the request is cancelled first, the page is
// empty and next = SEQ. Seqs are numbered per process: a restart renumbers
// the recovered decisions, so a client resumes from after=0.
func (s *Server) handleOutcomes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.shedRead(w) {
		return
	}
	q := r.URL.Query()
	after, okAfter := queryInt(q.Get("after"), 0, 0)
	limit, okLimit := queryInt(q.Get("limit"), outcomesLimit, 1)
	wait, err := time.ParseDuration(cmp.Or(q.Get("wait"), "0s"))
	if !okAfter || !okLimit || err != nil || wait < 0 || wait > outcomesMaxWait {
		writeError(w, http.StatusBadRequest, "bad page: want after >= 0, limit >= 1 and wait a duration in [0, 30s]")
		return
	}
	limit = min(limit, outcomesMaxLimit)
	next := s.svc.NextDecision()
	outs := s.svc.OutcomesAfter(after, limit)
	if len(outs) == 0 && wait > 0 {
		s.awaitDecision(r.Context(), next, wait)
		outs = s.svc.OutcomesAfter(after, limit)
	}
	page := outcomeItems(outs)
	writeJSON(w, http.StatusOK, OutcomesResponse{Outcomes: page, Next: after + len(page)})
}

// awaitDecision returns once next is closed, wait has passed on the service
// clock, or ctx ends. It arms only its own timer.
func (s *Server) awaitDecision(ctx context.Context, next <-chan struct{}, wait time.Duration) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer s.svc.Clock().AfterFunc(wait, cancel).Stop()
	select {
	case <-next:
	case <-ctx.Done():
	}
}

// outcomeItems renders decisions for the outcomes route and the dashboard.
func outcomeItems(outs []planner.Outcome) []OutcomeItem {
	items := make([]OutcomeItem, len(outs))
	for i, o := range outs {
		items[i] = OutcomeItem{ID: string(o.ID), State: o.State.String(), Reason: o.Reason, Commit: string(o.Commit)}
	}
	return items
}

// queryInt parses a query value as an int of at least least (empty: def),
// reporting whether it is one.
func queryInt(v string, def, least int) (int, bool) {
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	return n, err == nil && n >= least
}

var dashboardTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html><head><title>SubmitQueue</title>
<style>
 body { font-family: monospace; margin: 2em; background: #fafafa; }
 h1 { color: #2a7d2a; } table { border-collapse: collapse; }
 td, th { border: 1px solid #ccc; padding: 4px 10px; text-align: left; }
 .committed { color: #2a7d2a; } .rejected { color: #b03030; }
</style></head><body>
<h1>SubmitQueue — master is green</h1>
<p>mainline: {{.MainlineLen}} commits, HEAD {{.Head}} | pending: {{.Pending}}</p>
<h2>recent outcomes</h2>
<table><tr><th>change</th><th>state</th><th>detail</th></tr>
{{range .Outcomes}}<tr><td>{{.ID}}</td><td class="{{.State}}">{{.State}}</td><td>{{or .Reason .Commit}}</td></tr>
{{end}}</table>
<h2>recent events</h2>
<table><tr><th>#</th><th>type</th><th>change</th><th>build</th><th>detail</th></tr>
{{range .Events}}<tr><td>{{.Seq}}</td><td>{{.Type}}</td><td>{{.Change}}</td><td>{{.Build}}</td><td>{{.Detail}}</td></tr>
{{end}}</table>
<h2>gauges</h2>
<table><tr><th>name</th><th>value</th></tr>
{{range .Gauges}}<tr><td>{{.Name}}</td><td>{{.Value}}</td></tr>
{{end}}</table>
</body></html>`))

type dashboardData struct {
	MainlineLen int
	Head        string
	Pending     int
	Gauges      metrics.Gauges
	Outcomes    []OutcomeItem
	Events      []events.Event
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	if s.shedRead(w) {
		return
	}
	d := dashboardData{
		MainlineLen: s.svc.Repo().Len(),
		Head:        string(s.svc.Repo().Head().ID),
		Pending:     s.svc.PendingCount(),
		Gauges:      s.gauges(nil),
		// Copy only the log's tail, so a render costs the same at any uptime.
		Outcomes: outcomeItems(s.svc.OutcomesAfter(s.svc.OutcomeCount()-20, 20)),
	}
	if s.events != nil {
		d.Events = s.events.Since(s.events.LastSeq() - 20)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashboardTmpl.Execute(w, d); err != nil {
		fmt.Fprintf(w, "render error: %v", err)
	}
}
