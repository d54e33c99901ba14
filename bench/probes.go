package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mastergreen/internal/api"
	"mastergreen/internal/arbiter"
	"mastergreen/internal/buildgraph"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/metrics"
	"mastergreen/internal/planner"
	"mastergreen/internal/predict"
	"mastergreen/internal/queue"
	"mastergreen/internal/repo"
	"mastergreen/internal/shard"
	"mastergreen/internal/speculation"
	"mastergreen/internal/store"
)

// The layer probes time calls into each package's public functions from
// outside, on inputs made the way window_deep makes them (benchrepo with 64
// subtrees, the first N edits of the seed pending). A .kN name is a
// measurement at N pending.

type probeFunc func(seed int64, layer map[string]float64, tr *tracer) error

// layerProbes says which probes a workload's traced run executes: each probe
// runs once, beside the workload whose end-to-end metrics its layer moves, so
// its number stands next to that workload's own spans and counts. Elsewhere
// the metric reads 0. sim_replay's layers are all measured inside the run.
var layerProbes = map[string]struct{ before, after []probeFunc }{
	"serve_mix": {after: []probeFunc{probeAPI, probeStore, probeRepo}},
	// probeBuildgraph must run before anything else analyzes a snapshot: the
	// analyze cache is process-wide and only the first call is truly cold.
	"window_deep": {before: []probeFunc{probeBuildgraph}, after: []probeFunc{probeQueue, probeDepths}},
	"build_bound": {after: []probeFunc{probeDispatch}},
}

// timed runs f reps times and returns the median duration.
func timed(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(metrics.Percentile(ds, 50))
}

// meanOf runs f n times back to back and returns the mean duration.
func meanOf(n int, f func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(start) / time.Duration(n)
}

func probeChanges(seed int64, prefix string, n int) []*change.Change {
	edits := genEdits(seed, prefix, n, wdSubtrees)
	out := make([]*change.Change, n)
	for i, e := range edits {
		out[i] = e.change(wdSteps)
		out[i].SubmittedAt = time.Unix(0, int64(i))
	}
	return out
}

func probeBuildgraph(seed int64, layer map[string]float64, tr *tracer) error {
	sp := tr.begin("probe.buildgraph", "", -1)
	defer tr.end(sp)
	snap := repo.NewSnapshot(benchFiles(seed, wdSubtrees))
	start := time.Now()
	if _, err := buildgraph.Analyze(snap); err != nil {
		return err
	}
	layer["buildgraph.analyze_cold_ms"] = ms(time.Since(start))
	edits := genEdits(seed, "g", 32, wdSubtrees)
	var firstErr error
	layer["buildgraph.analyze_incr_us"] = us(meanOf(len(edits), func(i int) {
		next, err := snap.Apply(edits[i].patch())
		if err == nil {
			_, err = buildgraph.Analyze(next)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}))
	return firstErr
}

// discard is the cheapest http.ResponseWriter: handler time, not recorder time.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(status int)      { d.status = status }

// probeAPI times the three hot handlers through ServeHTTP directly — no TCP,
// no client — and counts the submit handler's allocations.
func probeAPI(seed int64, layer map[string]float64, tr *tracer) error {
	sp := tr.begin("probe.api", "", -1)
	defer tr.end(sp)
	const n = 2048
	svc := core.NewService(repo.New(benchFiles(seed, smSubtrees)), core.Config{
		Workers: smWorkers, Shards: smShards, Runner: newStepRunner(0, false),
	})
	srv := api.NewServer(svc)
	srv.EnableAdmission(smAdmission)
	stop := srv.StartStatusRefresher(250 * time.Millisecond)
	defer stop()
	edits := genEdits(seed, "a", n, smSubtrees)
	posts := make([]*http.Request, n)
	gets := make([]*http.Request, n)
	for i, e := range edits {
		var err error
		posts[i], err = http.NewRequest(http.MethodPost, "/api/v1/changes", io.NopCloser(bytes.NewReader(e.submitBody())))
		if err != nil {
			return err
		}
		if gets[i], err = http.NewRequest(http.MethodGet, "/api/v1/changes/"+e.id, nil); err != nil {
			return err
		}
	}
	status, err := http.NewRequest(http.MethodGet, "/api/v1/status", nil)
	if err != nil {
		return err
	}
	w := &discard{h: http.Header{}}
	ctx := context.Background()
	bad := 0
	var submit time.Duration
	var mallocs uint64
	var m0, m1 runtime.MemStats
	for from := 0; from < n; from += smWaveSubmit {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := from; i < from+smWaveSubmit; i++ {
			srv.ServeHTTP(w, posts[i])
			if w.status != http.StatusAccepted {
				bad++
			}
		}
		submit += time.Since(start)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		if err := svc.ProcessAll(ctx); err != nil {
			return err
		}
	}
	layer["api.submit_handler_us"] = us(submit / n)
	layer["api.submit_allocs_per_op"] = float64(mallocs) / n
	layer["api.state_handler_us"] = us(meanOf(n, func(i int) {
		srv.ServeHTTP(w, gets[i])
		if w.status != http.StatusOK {
			bad++
		}
	}))
	layer["api.status_handler_us"] = us(meanOf(n, func(int) { srv.ServeHTTP(w, status) }))
	layer["core.state_us"] = us(meanOf(n, func(i int) {
		if _, err := svc.State(change.ID(edits[i].id)); err != nil {
			bad++
		}
	}))
	if bad > 0 {
		return fmt.Errorf("api probe: %d requests failed", bad)
	}
	return nil
}

// probeStore times the journal on a file inside the checkout: appends under
// two concurrent writers (group commit), replay of 10k records, and folding
// them into a snapshot.
func probeStore(seed int64, layer map[string]float64, tr *tracer) error {
	sp := tr.begin("probe.store", "", -1)
	defer tr.end(sp)
	dir, err := os.MkdirTemp(buildDir(), "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	changes := probeChanges(seed, "j", 1024)

	j, err := store.Open(filepath.Join(dir, "live.jsonl"))
	if err != nil {
		return err
	}
	const writers, perWriter = 2, 256
	var wg sync.WaitGroup
	errs := make([]error, writers)
	start := time.Now()
	for k := 0; k < writers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < perWriter && errs[k] == nil; i++ {
				errs[k] = j.AppendSubmit(changes[k*perWriter+i])
			}
		}(k)
	}
	wg.Wait()
	// Client-observed: each writer waits for its own record to be durable.
	layer["store.append_us"] = us(time.Since(start) / perWriter)
	layer["store.fsyncs_per_append"] = ratio(float64(j.Syncs()), float64(j.Appends()))
	if err := j.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	path := filepath.Join(dir, "history.jsonl")
	h, err := store.Open(path)
	if err != nil {
		return err
	}
	h.SyncEvery = 1024 // building the history is not what is measured
	at := time.Unix(0, 0)
	for i := 0; i < 5000; i++ {
		c := changes[i%len(changes)]
		id := change.ID(fmt.Sprintf("h%05d", i))
		cc := *c
		cc.ID = id
		if err := h.AppendSubmit(&cc); err != nil {
			return err
		}
		if err := h.AppendOutcome(store.OutcomeRecord{ID: id, State: "committed", At: at}); err != nil {
			return err
		}
	}
	if err := h.Close(); err != nil {
		return err
	}
	start = time.Now()
	if _, err := store.Replay(path); err != nil {
		return err
	}
	layer["store.replay_ms_per_10k"] = ms(time.Since(start))
	if h, err = store.Open(path); err != nil {
		return err
	}
	start = time.Now()
	if err := h.Snapshot("probe", 1000, at); err != nil {
		return err
	}
	layer["store.snapshot_ms"] = ms(time.Since(start))
	return h.Close()
}

// keepFirst remembers the first error of a timed loop.
type keepFirst struct{ err error }

func (k *keepFirst) keep(err error) {
	if err != nil && k.err == nil {
		k.err = err
	}
}

// probeRepo times what every commit of serve_mix pays below the planner:
// one-line inserts into the snapshot, the content ID, a repository commit and
// an uncontended arbiter commit of a current-base proposal.
func probeRepo(seed int64, layer map[string]float64, tr *tracer) error {
	sp := tr.begin("probe.repo", "", -1)
	defer tr.end(sp)
	changes := probeChanges(seed, "q", 1024)
	var first keepFirst

	r := repo.New(benchFiles(seed, wdSubtrees))
	snap := r.Head().Snapshot()
	layer["repo.apply_us"] = us(meanOf(512, func(i int) {
		next, err := snap.Apply(changes[i].Patch)
		first.keep(err)
		snap = next
	}))
	layer["repo.content_id_us"] = us(meanOf(512, func(int) { _ = snap.ContentID() }))
	layer["repo.commit_us"] = us(meanOf(512, func(i int) {
		_, err := r.CommitPatch(r.Head().ID, changes[i].Patch, "bench", string(changes[i].ID), time.Unix(0, 0))
		first.keep(err)
	}))

	ar := repo.New(benchFiles(seed, wdSubtrees))
	arb := arbiter.New(ar, arbiter.Config{Analyzer: conflict.New(ar)})
	layer["arbiter.commit_us"] = us(meanOf(256, func(i int) {
		c := changes[i]
		_, err := arb.Commit(planner.CommitProposal{
			Change: c, BaseLen: ar.Len(), Applied: []change.ID{c.ID},
			Paths: c.Patch.Paths(), Now: time.Unix(0, 0),
		})
		first.keep(err)
	}))
	return first.err
}

// probeQueue times the intake queue at window_deep's depth and the first
// conflict analysis of a change at a head nobody analyzed yet.
func probeQueue(seed int64, layer map[string]float64, tr *tracer) error {
	sp := tr.begin("probe.queue", "", -1)
	defer tr.end(sp)
	changes := probeChanges(seed, "q", 1024)
	var first keepFirst

	q := queue.New(1)
	layer["queue.enqueue_us"] = us(meanOf(len(changes), func(i int) { first.keep(q.Enqueue(changes[i])) }))
	layer["queue.pending_us.k1024"] = us(timed(32, func() { _ = q.Pending() }))

	cr := repo.New(benchFiles(seed+1, wdSubtrees))
	can := conflict.New(cr)
	fresh := probeChanges(seed+1, "c", 64)
	layer["conflict.analyze_cold_us"] = us(meanOf(len(fresh), func(i int) {
		_, err := can.Analyze(fresh[i])
		first.keep(err)
	}))
	return first.err
}

// probeDispatch times what build_bound pays around every build besides the
// step-units themselves: the controller's dispatch of a 4-target, 1-step
// build to a runner that does nothing (distinct hashes, so the artifact cache
// never answers), and a bus publish with one live subscriber that keeps up.
func probeDispatch(seed int64, layer map[string]float64, tr *tracer) error {
	sp := tr.begin("probe.dispatch", "", -1)
	defer tr.end(sp)
	var first keepFirst

	ctrl := buildsys.NewController(bbWorkers, nil)
	head := repo.NewSnapshot(benchFiles(seed, bbSubtrees))
	layer["buildsys.dispatch_us"] = us(meanOf(512, func(i int) {
		targets := map[string]string{}
		for _, name := range targetNames {
			targets["//s000:"+name] = fmt.Sprintf("h%d", i)
		}
		res := ctrl.Run(context.Background(), buildsys.Request{
			Key: fmt.Sprint(i), Snapshot: head, Steps: bbSteps, Targets: targets,
		})
		if !res.OK {
			first.keep(res.Err)
		}
	}))

	ids := make([]change.ID, 1024)
	for i := range ids {
		ids[i] = change.ID(fmt.Sprintf("e%04d", i))
	}
	bus := events.NewBus(1024)
	ch, cancel := bus.Subscribe(stageBuffer)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range ch { // cancel closes ch
		}
	}()
	layer["events.publish_us"] = us(meanOf(20000, func(i int) {
		bus.Publish(events.Event{Type: events.TypeBuildStarted, Change: ids[i%len(ids)]})
	}))
	cancel()
	<-drained
	return first.err
}

// countingPredictor is the default static predictor with a call counter, for
// speculation.predictor_calls_per_plan. Engines plan side by side, hence the
// atomic.
type countingPredictor struct {
	inner predict.Predictor
	calls atomic.Int64
}

func newCountingPredictor() *countingPredictor {
	// The values core.NewService defaults to when no predictor is given.
	return &countingPredictor{inner: predict.Static{Success: 0.85, Conflict: 0.05}}
}

func (c *countingPredictor) PredictSuccess(ch *change.Change) float64 {
	c.calls.Add(1)
	return c.inner.PredictSuccess(ch)
}

func (c *countingPredictor) PredictConflict(a, b *change.Change) float64 {
	c.calls.Add(1)
	return c.inner.PredictConflict(a, b)
}

func (c *countingPredictor) count() int { return int(c.calls.Load()) }

// probeDepth measures the layers whose cost grows with the pending count, at
// k pending: conflict-graph construction (cold and after 8 arrivals plus one
// head move), the shard coordinator's partition, the speculation plan and a
// steady-state tick of the single planner.
func probeDepth(seed int64, k int, layer map[string]float64, tr *tracer) error {
	sp := tr.begin(fmt.Sprintf("probe.depth.k%d", k), "", -1)
	defer tr.end(sp)
	suffix := fmt.Sprintf(".k%d", k)
	const rounds, arrivals = 5, 8
	all := probeChanges(seed, "d", k+rounds*arrivals+rounds)
	ctx := context.Background()

	// conflict + speculation share one analyzer and repository.
	r := repo.New(benchFiles(seed, wdSubtrees))
	an := conflict.New(r)
	pending := append([]*change.Change(nil), all[:k]...)
	next := k
	start := time.Now()
	g, failed := an.BuildGraph(pending)
	layer["conflict.build_graph_cold_ms"+suffix] = ms(time.Since(start))
	if len(failed) > 0 {
		return fmt.Errorf("depth probe k%d: %d changes failed analysis", k, len(failed))
	}
	spec := speculation.New(predict.Static{Success: 0.85, Conflict: 0.05})
	layer["speculation.plan_us"+suffix] = us(timed(rounds, func() {
		spec.Plan(speculation.Request{Pending: pending, Conflicts: g, Budget: wdWorkers})
	}))
	var incr []float64
	for round := 0; round < rounds; round++ {
		// One head move (the oldest clean pending change lands) and 8 arrivals.
		for i, c := range pending {
			if _, err := r.CommitPatch(r.Head().ID, c.Patch, "bench", string(c.ID), time.Unix(0, 0)); err == nil {
				pending = append(pending[:i:i], pending[i+1:]...)
				break
			}
		}
		pending = append(pending, all[next:next+arrivals]...)
		next += arrivals
		start := time.Now()
		an.BuildGraph(pending)
		incr = append(incr, ms(time.Since(start)))
	}
	layer["conflict.build_graph_incr_ms"+suffix] = metrics.Percentile(incr, 50)

	// shard: a partition epoch with 8 new arrivals at k members.
	sr := repo.New(benchFiles(seed, wdSubtrees))
	san := conflict.New(sr)
	intake := queue.New(1)
	ctrl := buildsys.NewController(wdWorkers, nil)
	rt := shard.New(sr, intake, san, arbiter.New(sr, arbiter.Config{Analyzer: san}), ctrl, shard.Config{
		Shards:  wdShards,
		Planner: planner.Config{Budget: wdWorkers},
		Spec:    func() *speculation.Engine { return speculation.New(predict.Static{Success: 0.85, Conflict: 0.05}) },
	})
	for _, c := range probeChanges(seed, "p", k) {
		if err := intake.Enqueue(c); err != nil {
			return err
		}
	}
	rt.Partition() // adopts the k members; the timed epochs below add to them
	more := probeChanges(seed+2, "pa", rounds*arrivals)
	var part []float64
	for round := 0; round < rounds; round++ {
		for _, c := range more[round*arrivals : (round+1)*arrivals] {
			if err := intake.Enqueue(c); err != nil {
				return err
			}
		}
		start := time.Now()
		rt.Partition()
		part = append(part, ms(time.Since(start)))
	}
	layer["shard.partition_ms"+suffix] = metrics.Percentile(part, 50)

	// planner: steady-state epochs of the classic single planner at k pending
	// (each epoch decides a few changes; the harness tops the queue back up).
	pr := repo.New(benchFiles(seed, wdSubtrees))
	pq := queue.New(1)
	runner := newStepRunner(0, false)
	pctrl := buildsys.NewController(wdWorkers, runner)
	pl := planner.New(pr, pq, conflict.New(pr), speculation.New(predict.Static{Success: 0.85, Conflict: 0.05}),
		pctrl, planner.Config{Budget: wdWorkers})
	feed := probeChanges(seed, "t", k+16*wdWorkers)
	fed := 0
	topUp := func() error {
		for pq.Len() < k && fed < len(feed) {
			if err := pq.Enqueue(feed[fed]); err != nil {
				return err
			}
			fed++
		}
		return nil
	}
	idle := func() {
		for {
			if runner.busy.Load() == 0 {
				if bs := pctrl.Stats(); bs.Completed+bs.Aborted >= bs.Builds {
					return
				}
			}
			runtime.Gosched()
		}
	}
	var ticks []float64
	for epoch := 0; epoch < 2+rounds; epoch++ {
		if err := topUp(); err != nil {
			return err
		}
		start := time.Now()
		if _, err := pl.Tick(ctx); err != nil {
			return err
		}
		if epoch >= 2 { // the first epochs analyze the whole queue from cold
			ticks = append(ticks, ms(time.Since(start)))
		}
		idle()
	}
	layer["planner.tick_ms"+suffix] = metrics.Percentile(ticks, 50)
	return nil
}

// probeDepths runs probeDepth at 64, 256 and 1024 pending.
func probeDepths(seed int64, layer map[string]float64, tr *tracer) error {
	for _, k := range []int{64, 256, 1024} {
		if err := probeDepth(seed, k, layer, tr); err != nil {
			return err
		}
	}
	return nil
}
