package experiments

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"mastergreen/internal/api"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/clock"
	"mastergreen/internal/core"
	"mastergreen/internal/loadgen"
	"mastergreen/internal/repo"
)

// loadtestRunner simulates builds of buildDelay each (0 = instant).
// brokenPaths lists every file the workload can submit with broken content:
// the runner probes exactly those instead of scanning the whole tree, keeping
// the harness's own build cost O(broken set) rather than O(tree) — at
// thousands of commits a full scan per build step would starve the
// single-core serving path and corrupt the latency measurement.
func loadtestRunner(buildDelay time.Duration, brokenPaths []string) buildsys.StepRunner {
	return buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		if err := clock.Sleep(ctx, clock.Wall, buildDelay); err != nil { //lint:ignore wallclock load test builds take real time by design
			return err
		}
		for _, p := range brokenPaths {
			if content, ok := snap.Read(p); ok && strings.Contains(content, "BROKEN") {
				return fmt.Errorf("compile error: broken source %s", p)
			}
		}
		return nil
	})
}

// loadtestPath maps submission i to its file: slot i/subtrees in subtree
// i%subtrees, matching subtreeRepo's declared targets.
func loadtestPath(i, subtrees int) string {
	return fmt.Sprintf("sub%03d/f%d.go", i%subtrees, i/subtrees)
}

// loadtestBroken reports whether submission i carries broken content (every
// 37th does, so the green invariant is actually exercised).
func loadtestBroken(i int) bool { return i%37 == 19 }

// loadtestRequest spreads submissions over subtrees via loadtestPath.
func loadtestRequest(prefix string, subtrees int) loadgen.RequestFunc {
	return func(i int) (string, []byte) {
		id := fmt.Sprintf("%s-%05d", prefix, i)
		content := fmt.Sprintf("content %d", i)
		if loadtestBroken(i) {
			content = "BROKEN " + content
		}
		body := fmt.Sprintf(`{"id":%q,"author":"loadgen-%d","team":"load",`+
			`"files":[{"path":%q,"op":"create","content":%q}],"test_plan":true}`,
			id, i%8, loadtestPath(i, subtrees), content)
		return id, []byte(body)
	}
}

// followDecisions follows a stack's decision log for up to two minutes and
// returns the tally and the seconds it took.
func followDecisions(client *http.Client, url string, ids []string) (loadgen.Decisions, float64, error) {
	//lint:ignore wallclock load test measures real elapsed time
	start := time.Now()
	d, err := loadgen.Follow(client, url, ids, start.Add(2*time.Minute))
	//lint:ignore wallclock load test measures real elapsed time
	return d, time.Since(start).Seconds(), err
}

// greenViolations scans HEAD's full tree for broken content. Sound for this
// workload because every submission is a create: bad content that ever
// reached mainline can never be removed, so HEAD sees it.
func greenViolations(r *repo.Repo) int {
	v := 0
	r.Head().Snapshot().Range(func(path, content string) bool {
		if strings.Contains(content, "BROKEN") {
			v++
		}
		return true
	})
	return v
}

// Loadtest drives the real sqd serving stack over localhost HTTP with the
// open-loop generator, in two phases. Sustained: instant builds, generous
// admission; the serving path must hold tens of thousands of submissions per
// minute with P99 submit latency in single-digit milliseconds, then drain to
// zero undecided. Overload: slow builds (25ms/step — decisions far below the
// offered rate), a small admission queue, and 2x the sustained rate; the
// service must shed with 429 + Retry-After and 503 dashboard reads instead
// of collapsing, and every accepted change must still reach a decision. Both
// phases keep mainline green under deliberately broken submissions.
func Loadtest(o Options) *Report {
	r := newReport("loadtest", "Serving path — sustained throughput, backpressure, overload degradation")

	subtrees := 32
	rate := float64(o.count(100, 350))
	dur := time.Duration(o.count(1500, 6000)) * time.Millisecond
	warm := time.Duration(o.count(300, 2000)) * time.Millisecond
	overRate := 2 * rate
	overDur := time.Duration(o.count(1000, 3000)) * time.Millisecond
	overCap := o.count(30, 200)
	overDelay := time.Duration(o.count(50, 100)) * time.Millisecond

	// Slot budget: worst case every paced submission lands in one phase.
	slots := int(rate*(warm+dur).Seconds()+overRate*overDur.Seconds())/subtrees + 64
	var brokenPaths []string
	for i := 0; i < slots*subtrees; i++ {
		if loadtestBroken(i) {
			brokenPaths = append(brokenPaths, loadtestPath(i, subtrees))
		}
	}

	client := loadgen.SharedClient(256)

	// --- Phase 1: sustained throughput on the hot serving path.
	sus, err := api.OpenStack(subtreeRepo(subtrees, slots), api.StackConfig{
		Core: core.Config{Workers: 16, Runner: loadtestRunner(0, brokenPaths)},
		Addr: "127.0.0.1:0", AdmissionCap: 50000,
	})
	//lint:ignore tainttime load test drives a live stack on real time by design
	if err != nil {
		r.Text = "loadtest: " + err.Error()
		return r
	}
	// A deliberately stalled subscriber: publishes must never block on it;
	// its losses show up in the bus drop counters instead.
	_, cancelStalled := sus.Bus().Subscribe(2)

	res, err := loadgen.Run(loadgen.Config{
		BaseURL: sus.URL(), Rate: rate, Duration: dur, Warmup: warm,
		MaxInFlight: 256, Client: client,
		Request:  loadtestRequest("sus", subtrees),
		PollRate: rate / 4, StatusRate: 20,
	})
	//lint:ignore tainttime load test drives a live stack on real time by design
	if err != nil {
		_ = sus.Close() // in-memory: nothing to persist
		cancelStalled()
		r.Text = "loadtest: sustained run: " + err.Error()
		return r
	}
	dec, drainSecs, err := followDecisions(client, sus.URL(), res.AcceptedIDs)
	busStats := sus.Bus().Stats()
	greenSus := greenViolations(sus.Service().Repo())
	cancelStalled()
	_ = sus.Close() // in-memory: nothing to persist
	//lint:ignore tainttime load test drives a live stack on real time by design
	if err != nil {
		r.Text = "loadtest: sustained decisions: " + err.Error()
		return r
	}

	r.Metrics["sustained_per_min"] = res.Sustained()
	r.Metrics["offered"] = float64(res.Offered)
	r.Metrics["accepted"] = float64(res.Accepted)
	r.Metrics["throttled_sustained"] = float64(res.Throttled)
	r.Metrics["errors_sustained"] = float64(res.Errors)
	r.Metrics["submit_p50_ms"] = res.Submit.P50Ms
	r.Metrics["submit_p99_ms"] = res.Submit.P99Ms
	r.Metrics["submit_p999_ms"] = res.Submit.P999Ms
	r.Metrics["state_p99_ms"] = res.StatePoll.P99Ms
	r.Metrics["status_p99_ms"] = res.StatusRead.P99Ms
	r.Metrics["drain_secs"] = drainSecs
	r.Metrics["committed"] = float64(dec.Committed)
	r.Metrics["rejected"] = float64(dec.Rejected)
	r.Metrics["undecided"] = float64(dec.Undecided)
	r.Metrics["events_dropped"] = float64(busStats.Dropped)

	// --- Phase 2: overload. Slow builds, small queue, double the rate.
	// Four workers, slow builds: the decision rate sits far below
	// the offered rate, so the queue actually fills and backpressure engages.
	over, err := api.OpenStack(subtreeRepo(subtrees, slots), api.StackConfig{
		Core: core.Config{Workers: 4, Runner: loadtestRunner(overDelay, brokenPaths)},
		Addr: "127.0.0.1:0", AdmissionCap: overCap,
	})
	//lint:ignore tainttime load test drives a live stack on real time by design
	if err != nil {
		r.Text = "loadtest: " + err.Error()
		return r
	}
	overRes, err := loadgen.Run(loadgen.Config{
		BaseURL: over.URL(), Rate: overRate, Duration: overDur,
		MaxInFlight: 256, Client: client,
		Request:  loadtestRequest("over", subtrees),
		PollRate: rate / 4, StatusRate: 50,
	})
	//lint:ignore tainttime load test drives a live stack on real time by design
	if err != nil {
		_ = over.Close() // in-memory: nothing to persist
		r.Text = "loadtest: overload run: " + err.Error()
		return r
	}
	overDec, overDrainSecs, err := followDecisions(client, over.URL(), overRes.AcceptedIDs)
	greenOver := greenViolations(over.Service().Repo())
	_ = over.Close() // in-memory: nothing to persist
	//lint:ignore tainttime load test drives a live stack on real time by design
	if err != nil {
		r.Text = "loadtest: overload decisions: " + err.Error()
		return r
	}

	r.Metrics["overload_offered"] = float64(overRes.Offered)
	r.Metrics["overload_accepted"] = float64(overRes.Accepted)
	r.Metrics["overload_throttled"] = float64(overRes.Throttled)
	r.Metrics["overload_retry_after_mean"] = overRes.RetryAfterMean
	r.Metrics["overload_shed_reads"] = float64(overRes.StatusShed)
	r.Metrics["overload_errors"] = float64(overRes.Errors)
	r.Metrics["overload_drain_secs"] = overDrainSecs
	r.Metrics["overload_committed"] = float64(overDec.Committed)
	r.Metrics["overload_rejected"] = float64(overDec.Rejected)
	r.Metrics["overload_undecided"] = float64(overDec.Undecided)
	r.Metrics["green_violations"] = float64(greenSus + greenOver)

	r.Text = fmt.Sprintf(
		"sustained: offered %d at %.0f/s → accepted %.0f/min, throttled %d, errors %d\n"+
			"  submit  %s\n  state   %s\n  status  %s\n"+
			"  drained in %.1fs: %d committed, %d rejected, %d undecided; bus drops %d (stalled subscriber)\n"+
			"overload (%.0f/s into capacity %d, %v builds): accepted %d, throttled %d (mean Retry-After %.1fs),\n"+
			"  dashboard reads shed %d; drained in %.1fs: %d committed, %d rejected, %d undecided\n"+
			"green violations across both mainlines: %d\n",
		res.Offered, res.OfferedPerSec, res.Sustained(), res.Throttled, res.Errors,
		res.Submit, res.StatePoll, res.StatusRead,
		drainSecs, dec.Committed, dec.Rejected, dec.Undecided, busStats.Dropped,
		overRate, overCap, overDelay, overRes.Accepted, overRes.Throttled, overRes.RetryAfterMean,
		overRes.StatusShed, overDrainSecs, overDec.Committed, overDec.Rejected, overDec.Undecided,
		greenSus+greenOver)
	return r
}

// subtreeRepo builds a monorepo with many independent target subtrees. Every
// target declares slot files that do not exist yet, so creates within a
// subtree conflict at the target level (they chain) while different subtrees
// stay independent conflict-graph components.
func subtreeRepo(subtrees, slots int) *repo.Repo {
	srcs := "lib.go"
	for s := 0; s < slots; s++ {
		srcs += fmt.Sprintf(",f%d.go", s)
	}
	files := map[string]string{}
	for i := 0; i < subtrees; i++ {
		dir := fmt.Sprintf("sub%03d", i)
		files[dir+"/BUILD"] = "target t srcs=" + srcs
		files[dir+"/lib.go"] = "lib v1"
	}
	return repo.New(files)
}
