// Package api exposes SubmitQueue over HTTP, mirroring the paper's stateless
// API service (§7.1): landing a change and getting the state of a change,
// plus a small status page in place of the cycle.js web UI.
//
// Endpoints:
//
//	POST /api/v1/changes        — submit (land) a change
//	GET  /api/v1/changes/{id}   — get a change's state
//	GET  /api/v1/status         — service counters
//	GET  /healthz               — liveness; 503 once the journal has failed
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/metrics"
	"mastergreen/internal/repo"
)

// SubmitRequest is the JSON body of POST /api/v1/changes.
type SubmitRequest struct {
	ID          string       `json:"id"`
	Author      string       `json:"author"`
	Team        string       `json:"team"`
	Description string       `json:"description"`
	Files       []FileChange `json:"files"`
	// patch and nFiles are filled by the server-side parser (codec.go),
	// which converts file edits straight into repo form instead of
	// materializing Files; Files stays for clients that marshal requests.
	patch  repo.Patch
	nFiles int
	// TestPlan/RevertPlan feed the revision-level model features.
	TestPlan   bool `json:"test_plan"`
	RevertPlan bool `json:"revert_plan"`
	// Benefit weights this change in the speculation value function
	// (§4.2.1); 0 means the default of 1. Security patches and release
	// blockers submit with higher benefit.
	Benefit float64 `json:"benefit,omitempty"`
	// Priority selects the scheduling lane (DESIGN.md §4l): "P0"/"hotfix",
	// "P2"/"bulk", anything else (including empty) is the normal P1 lane.
	Priority string `json:"priority,omitempty"`
	// DeadlineInSec, when > 0, sets a soft deadline this many seconds from
	// submission; the scheduler ages the change's weight as it approaches.
	DeadlineInSec float64 `json:"deadline_in_sec,omitempty"`
}

// FileChange is one file edit in a submit request.
type FileChange struct {
	Path string `json:"path"`
	// Op is "create", "modify", "delete", or "edit-lines".
	Op string `json:"op"`
	// BaseContent is the content the edit was authored against (used to
	// compute the merge-base hash for modify/delete).
	BaseContent string `json:"base_content,omitempty"`
	Content     string `json:"content,omitempty"`
	// Line-edit fields ("edit-lines"): replace OldLines at the 1-based
	// StartLine with NewLines; the hunk is located by content with fuzz, so
	// disjoint line edits to one file merge instead of conflicting.
	StartLine int      `json:"start_line,omitempty"`
	OldLines  []string `json:"old_lines,omitempty"`
	NewLines  []string `json:"new_lines,omitempty"`
}

// SubmitResponse is the JSON reply to a submit.
type SubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// StateResponse is the JSON reply to a state query.
type StateResponse struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Reason string `json:"reason,omitempty"`
	Commit string `json:"commit,omitempty"`
}

// StatusResponse summarizes the service.
type StatusResponse struct {
	Pending      int    `json:"pending"`
	MainlineLen  int    `json:"mainline_len"`
	MainlineHead string `json:"mainline_head"`

	// Gauges holds every counter of every layer, keyed by metrics.Render's
	// <layer>_<field> names: core.Service.Gauges, plus events_* and
	// admission_* when the server has an event bus and admission.
	Gauges map[string]float64 `json:"gauges"`

	// StatusRefreshes counts rebuilds of this very response: requests
	// between rebuilds were served from the pre-marshaled snapshot.
	StatusRefreshes int64 `json:"status_refreshes"`
}

// Server adapts a core.Service to HTTP.
type Server struct {
	svc    *core.Service
	mux    *http.ServeMux
	events *events.Bus
	// now supplies the clock for generated change IDs, the status cache
	// TTL, and admission drain-rate sampling; injectable so API behavior
	// replays deterministically under test.
	now func() time.Time
	// adm bounds submissions and sheds dashboard reads under overload
	// (nil: unbounded, never sheds). See EnableAdmission.
	adm *admission
	// status serves GET /api/v1/status from a pre-marshaled snapshot.
	status *statusCache
}

// NewServer wraps the service.
func NewServer(svc *core.Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), now: time.Now}
	s.status = newStatusCache(func() time.Time { return s.now() }, s.buildStatusBody)
	s.mux.HandleFunc("/api/v1/changes", s.handleChanges)
	s.mux.HandleFunc("/api/v1/changes/", s.handleChangeState)
	s.mux.HandleFunc("/api/v1/status", s.handleStatus)
	s.mux.HandleFunc("/api/v1/events", s.handleEvents)
	s.mux.HandleFunc("/api/v1/outcomes", s.handleOutcomes)
	s.mux.HandleFunc("/", s.handleDashboard)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if err := s.svc.Health(); err != nil {
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return s
}

// ServeHTTP implements http.Handler. The hot endpoints (submit, state poll,
// status) are routed with a direct string switch: ServeMux's pattern matcher
// allocates per request, and those three paths are the entire serving load.
// Everything else falls through to the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/api/v1/changes":
		s.handleChanges(w, r)
	case strings.HasPrefix(path, "/api/v1/changes/"):
		s.handleChangeState(w, r)
	case path == "/api/v1/status":
		s.handleStatus(w, r)
	default:
		s.mux.ServeHTTP(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// errorStatus is 503 for a failed journal, which no retry of the request
// mends until the service restarts, and otherwise the route's status.
func errorStatus(err error, otherwise int) int {
	if errors.Is(err, core.ErrJournal) {
		return http.StatusServiceUnavailable
	}
	return otherwise
}

// shedRead refuses a dashboard-class read with 503 + Retry-After when the
// admission queue is near capacity, reporting whether the request was
// handled. State polls and health checks never pass through here: under
// overload the cheap per-change reads and liveness stay up while the
// expensive aggregate reads make room for submissions.
func (s *Server) shedRead(w http.ResponseWriter) bool {
	if s.adm == nil || !s.adm.overloaded() {
		return false
	}
	s.adm.countShed()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "overloaded: dashboard reads shed")
	return true
}

// convertFile converts one request file edit into repo form.
func convertFile(f *FileChange) (repo.FileChange, error) {
	if f.Path == "" {
		return repo.FileChange{}, fmt.Errorf("file change without path")
	}
	fc := repo.FileChange{Path: f.Path, NewContent: f.Content}
	switch f.Op {
	case "create":
		fc.Op = repo.OpCreate
	case "modify":
		fc.Op = repo.OpModify
		fc.BaseHash = repo.HashContent(f.BaseContent)
	case "delete":
		fc.Op = repo.OpDelete
		fc.BaseHash = repo.HashContent(f.BaseContent)
	case "edit-lines":
		fc.Op = repo.OpEditLines
		fc.StartLine = f.StartLine
		fc.OldLines = f.OldLines
		fc.NewLines = f.NewLines
	default:
		return repo.FileChange{}, fmt.Errorf("unknown op %q for %s", f.Op, f.Path)
	}
	return fc, nil
}

// changeWithRevision allocates a change and its revision together: one heap
// object instead of two on the submit hot path.
type changeWithRevision struct {
	c   change.Change
	rev change.Revision
}

// defaultBuildSteps is shared across all submitted changes: nothing mutates
// a change's BuildSteps in place (the planner hands them to the build
// controller as they are, the journal encodes element by element), so one
// slice serves every request.
var defaultBuildSteps = change.DefaultBuildSteps()

func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.adm != nil {
		if retry, ok := s.adm.admitSubmit(); !ok {
			w.Header().Set("Retry-After", itoaSmall(retry))
			writeError(w, http.StatusTooManyRequests, "queue full; retry later")
			return
		}
	}
	bufp := getBuf()
	data, err := readAll(r.Body, *bufp)
	*bufp = data[:0]
	if err != nil {
		putBuf(bufp)
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	// One copy: the parser returns substrings of this string, which the
	// enqueued change retains; the read buffer itself goes back to the pool.
	body := string(data)
	putBuf(bufp)
	var req SubmitRequest
	if err := parseSubmitRequest(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if req.ID == "" {
		req.ID = "c-" + strconv.FormatInt(s.now().UnixNano(), 10)
	}
	cr := &changeWithRevision{}
	c := &cr.c
	*c = change.Change{
		ID:          change.ID(req.ID),
		Author:      change.Developer{Name: req.Author, Team: req.Team, Level: 3},
		Description: req.Description,
		Patch:       req.patch,
		BuildSteps:  defaultBuildSteps,
		Revision:    &cr.rev,
		Stats:       change.Stats{FilesChanged: req.nFiles},
		Benefit:     req.Benefit,
		Class:       change.ParseClass(req.Priority),
	}
	if req.DeadlineInSec > 0 {
		c.Deadline = s.now().Add(time.Duration(req.DeadlineInSec * float64(time.Second)))
	}
	cr.rev = change.Revision{
		ID:         change.RevisionID("r-" + req.ID),
		TestPlan:   req.TestPlan,
		RevertPlan: req.RevertPlan,
	}
	if err := s.svc.Submit(c); err != nil {
		writeError(w, errorStatus(err, http.StatusConflict), err.Error())
		return
	}
	out := getBuf()
	b := append(*out, `{"id":`...)
	b = appendJSONString(b, req.ID)
	b = append(b, `,"state":"pending"}`...)
	h := w.Header()
	h["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write(b)
	*out = b[:0]
	putBuf(out)
}

func (s *Server) handleChangeState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/api/v1/changes/")
	if id == "" {
		writeError(w, http.StatusBadRequest, "missing change id")
		return
	}
	st, err := s.svc.State(change.ID(id))
	if err != nil {
		writeError(w, errorStatus(err, http.StatusNotFound), err.Error())
		return
	}
	out := getBuf()
	b := append(*out, `{"id":`...)
	b = appendJSONString(b, string(st.ID))
	b = append(b, `,"state":`...)
	b = appendJSONString(b, st.State.String())
	if st.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, st.Reason)
	}
	if st.Commit != "" {
		b = append(b, `,"commit":`...)
		b = appendJSONString(b, string(st.Commit))
	}
	b = append(b, '}')
	h := w.Header()
	h["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*out = b[:0]
	putBuf(out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.shedRead(w) {
		return
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.status.get())
}

// buildStatusBody renders the full status snapshot to JSON (status cache
// rebuild; runs once per TTL or refresher tick, not per request).
func (s *Server) buildStatusBody() []byte {
	st := s.buildStatusResponse()
	b, err := json.Marshal(&st)
	if err != nil {
		return []byte(`{"error":"status marshal failed"}`)
	}
	return b
}

func (s *Server) buildStatusResponse() StatusResponse {
	g := s.gauges()
	resp := StatusResponse{
		Pending:         s.svc.PendingCount(),
		MainlineLen:     s.svc.Repo().Len(),
		MainlineHead:    string(s.svc.Repo().Head().ID),
		Gauges:          make(map[string]float64, len(g)),
		StatusRefreshes: s.status.Refreshes(),
	}
	for _, kv := range g {
		resp.Gauges[kv.Name] = kv.Value
	}
	return resp
}

// gauges is Service.Gauges plus the server's own event-bus and admission
// gauges, when those are enabled: the one list /status and the dashboard
// render.
func (s *Server) gauges() metrics.Gauges {
	g := s.svc.Gauges()
	if s.events != nil {
		g = append(g, metrics.Render(s.events.Stats())...)
	}
	if s.adm != nil {
		g = append(g, metrics.Render(s.adm.Stats())...)
	}
	return g
}
