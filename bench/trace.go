package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mastergreen/internal/events"
)

// span is one timed call from the harness into a layer, or one interval
// between two bus events of a change. Times are nanoseconds since the
// tracer was created; Parent is the index of the causing span, -1 for none.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Change string `json:"change,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	// Room for a whole serve_mix run, so the traced section does not pay for
	// regrowing the slice.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, change string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Change: change})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// interval records a span whose ends were observed elsewhere (bus events).
func (t *tracer) interval(name, change string, from, to time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(from.Sub(t.t0)), End: int64(to.Sub(t.t0)), Parent: -1, Change: change})
	t.mu.Unlock()
}

// durations returns the closed spans of one name in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write dumps the spans and the per-layer table as one JSON document.
func (t *tracer) write(path string, r *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Layers   map[string]float64 `json:"per_layer"`
		Spans    []span             `json:"spans"`
	}{r.workload, r.seed, r.layer, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stageWatch follows the event bus and cuts every change's turnaround into
// three waits: submitted -> first build started (queue), first build started
// -> last build finished before the decision (build), and that -> committed
// or rejected (decide). The three partition the interval, so their means sum
// to the turnaround mean; what is missing is what the bus dropped.
type stageWatch struct {
	tr     *tracer
	cancel func()
	done   chan struct{}

	open map[string]*stageTimes

	// Sums over decided changes; a part is summed only where all its events
	// were seen.
	decided                                  int
	queueMs, buildMs, decideMs, turnaroundMs float64
}

type stageTimes struct {
	submitted, firstStart, lastFinish time.Time
}

// stageBuffer is the subscription's channel size: large enough that the
// drain goroutine, which shares two cores with the workload, can fall a few
// thousand events behind without the bus shedding any.
const stageBuffer = 1 << 16

// watchStages subscribes to the bus; stop ends the subscription, waits for
// the drain goroutine and returns the stage means.
func watchStages(bus *events.Bus, tr *tracer) *stageWatch {
	ch, cancel := bus.Subscribe(stageBuffer)
	w := &stageWatch{tr: tr, cancel: cancel, done: make(chan struct{}), open: map[string]*stageTimes{}}
	go func() {
		defer close(w.done)
		for ev := range ch { // cancel closes ch
			w.observe(ev)
		}
	}()
	return w
}

func (w *stageWatch) observe(ev events.Event) {
	id := string(ev.Change)
	switch ev.Type {
	case events.TypeSubmitted:
		w.open[id] = &stageTimes{submitted: ev.At}
	case events.TypeBuildStarted:
		if st := w.open[id]; st != nil && st.firstStart.IsZero() {
			st.firstStart = ev.At
		}
	case events.TypeBuildFinished:
		if st := w.open[id]; st != nil && !st.firstStart.IsZero() {
			st.lastFinish = ev.At
		}
	case events.TypeCommitted, events.TypeRejected:
		st := w.open[id]
		if st == nil {
			return
		}
		delete(w.open, id)
		w.decided++
		w.turnaroundMs += ms(ev.At.Sub(st.submitted))
		w.tr.interval("stage.turnaround", id, st.submitted, ev.At)
		if st.firstStart.IsZero() || st.lastFinish.IsZero() {
			return // decided without a finished build of its own, or events dropped
		}
		w.queueMs += ms(st.firstStart.Sub(st.submitted))
		w.buildMs += ms(st.lastFinish.Sub(st.firstStart))
		w.decideMs += ms(ev.At.Sub(st.lastFinish))
		w.tr.interval("stage.queue_wait", id, st.submitted, st.firstStart)
		w.tr.interval("stage.build", id, st.firstStart, st.lastFinish)
		w.tr.interval("stage.decide", id, st.lastFinish, ev.At)
	}
}

func (w *stageWatch) stop(layer map[string]float64) {
	w.cancel()
	<-w.done
	// Each part is averaged over all decided changes, so the parts sum to
	// the turnaround mean exactly when every change had its events seen.
	n := float64(w.decided)
	layer["stage.queue_wait_ms_mean"] = ratio(w.queueMs, n)
	layer["stage.build_ms_mean"] = ratio(w.buildMs, n)
	layer["stage.decide_ms_mean"] = ratio(w.decideMs, n)
	layer["stage.turnaround_ms_mean"] = ratio(w.turnaroundMs, n)
}
