package api

import (
	"fmt"
	"html/template"
	"net/http"
	"strconv"

	"mastergreen/internal/change"
	"mastergreen/internal/events"
	"mastergreen/internal/metrics"
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
	since := int64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since: "+err.Error())
			return
		}
		since = n
	}
	writeJSON(w, http.StatusOK, EventsResponse{
		Events:  s.events.Since(since),
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

func (s *Server) handleOutcomes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.shedRead(w) {
		return
	}
	var out []OutcomeItem
	for _, o := range s.svc.Outcomes() {
		out = append(out, OutcomeItem{
			ID: string(o.ID), State: o.State.String(), Reason: o.Reason, Commit: string(o.Commit),
		})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"outcomes": out})
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
{{range .Outcomes}}<tr><td>{{.ID}}</td><td class="{{.State}}">{{.State}}</td><td>{{.Detail}}</td></tr>
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
	Outcomes    []dashboardOutcome
	Events      []events.Event
}

type dashboardOutcome struct {
	ID     change.ID
	State  string
	Detail string
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
		Gauges:      s.gauges(),
	}
	// Copy only the log's tail, so a render costs the same at any uptime.
	// OutcomeCount can lag the decisions OutcomesSince merges: trim to 20.
	outs := s.svc.OutcomesSince(s.svc.OutcomeCount() - 20)
	if len(outs) > 20 {
		outs = outs[len(outs)-20:]
	}
	for _, o := range outs {
		detail := string(o.Commit)
		if o.Reason != "" {
			detail = o.Reason
		}
		d.Outcomes = append(d.Outcomes, dashboardOutcome{
			ID: o.ID, State: o.State.String(), Detail: detail,
		})
	}
	if s.events != nil {
		evs := s.events.Since(0)
		if len(evs) > 20 {
			evs = evs[len(evs)-20:]
		}
		d.Events = evs
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashboardTmpl.Execute(w, d); err != nil {
		fmt.Fprintf(w, "render error: %v", err)
	}
}
