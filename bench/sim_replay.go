package main

import (
	"fmt"
	"sort"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/experiments"
	"mastergreen/internal/metrics"
	"mastergreen/internal/predict"
	"mastergreen/internal/sim"
	"mastergreen/internal/strategies"
	"mastergreen/internal/workload"
)

// sim_replay: the virtual-clock simulator replaying generated iOS-like change
// streams under the SubmitQueue strategy with a trained predictor — the
// second decision brain (strategies + speculation + predict) and the
// simulator's event loop. Wall-clock speed may change between commits of the
// repository; the virtual-time results are counts and must not, unless a
// change says so.
//
// A run replays srStreams independent streams and pools them. The streams
// themselves are fixed — their generator seeds are constants below — because
// one stream's dynamics swing widely with its seed (a single early rejection
// reshapes a whole speculation chain: +-20 % in builds, allocation and wall
// time between seeds, which would drown any comparison across seeds). --seed
// seeds the history the predictor is trained on, and through the predictor
// every speculation decision of the replay: the counts move by fractions of a
// percent with it, which is what a seed is for.
//
// The streams are different inputs, not repeats of one: every wall-clock
// number is a total over all of them, and none is selected or left out.
const (
	srRatePerHour = 100
	srWorkers     = 500
	srStreams     = 8
	srWarmStreams = 2        // warm-up replays this many more streams of the same size
	srStreamSeed  = 20190325 // stream k is generated from srStreamSeed + k
	// srRate is simulated changes per second of --seconds (fixes the total
	// change count); srTrainRate sizes the predictor's training history the
	// same way: 12000 changes at the checked-in 20 s.
	srRate      = 185.0
	srTrainRate = 600.0
)

var srConfig = sim.Config{Workers: srWorkers, UseAnalyzer: true}

type simSetup struct {
	predictor predict.Predictor
	streams   []*workload.Workload
	trainS    float64
	generateS float64
}

func streamConfig(k, n int) workload.Config {
	return workload.IOSConfig(srStreamSeed+int64(k), n, srRatePerHour)
}

func setupSimReplay(p params, n int) (*simSetup, error) {
	s := &simSetup{}
	start := time.Now()
	learned, _, err := experiments.TrainPredictor(p.seed, p.count(srTrainRate, 600))
	if err != nil {
		return nil, fmt.Errorf("training the predictor: %w", err)
	}
	s.predictor = learned
	s.trainS = time.Since(start).Seconds()
	start = time.Now()
	for k := 0; k < srStreams; k++ {
		s.streams = append(s.streams, workload.Generate(streamConfig(k, n)))
	}
	s.generateS = time.Since(start).Seconds()
	// Warm-up: the same call on further streams of the same size.
	for k := 0; k < srWarmStreams; k++ {
		w := workload.Generate(streamConfig(srStreams+k, n))
		sim.Run(w, strategies.NewSubmitQueue(w, s.predictor), srConfig)
	}
	return s, nil
}

func runSimReplay(p params) (*result, error) {
	r := newResult(p)
	n := p.count(srRate/srStreams, 40)

	start := time.Now()
	s, err := setupSimReplay(p, n)
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = time.Since(start).Seconds()

	var rate, turnMs []float64
	var wall, cpu time.Duration
	var allocBytes uint64
	var ids []string
	pool := sim.Result{}
	probes := newSimProbes(p.tr)
	for k, w := range s.streams {
		var strat sim.Strategy = strategies.NewSubmitQueue(w, s.predictor)
		if p.tr != nil {
			strat = probes.wrap(strategies.NewSubmitQueue(w, probes.predictor(s.predictor)))
		}
		probes.root = p.tr.begin("sim.Run", fmt.Sprint(k), -1)
		a := readProbeAlloc()
		res := sim.Run(w, strat, srConfig)
		b := readProbeAlloc()
		p.tr.end(probes.root)
		wall += b.wall.Sub(a.wall)
		cpu += b.cpu - a.cpu
		allocBytes += b.alloc - a.alloc
		rate = append(rate, float64(n)/b.wall.Sub(a.wall).Seconds())

		r.attempted += n
		checkSim(r, w, res)
		pool.Committed += res.Committed
		pool.BuildsStarted += res.BuildsStarted
		pool.BuildsAborted += res.BuildsAborted
		pool.WorkerBusy += res.WorkerBusy
		for _, m := range res.TurnaroundAllMin {
			turnMs = append(turnMs, m*60000)
		}
		for _, idx := range res.CommittedChanges {
			ids = append(ids, fmt.Sprintf("%d/%d", k, idx))
		}
		// The counts are part of what must repeat, not only which changes landed.
		ids = append(ids, fmt.Sprintf("%d builds %d busy %d", k, res.BuildsStarted, res.WorkerBusy))
	}
	total := float64(n * srStreams)
	probes.runS = wall.Seconds()
	r.notes["stream_rates"] = fmt.Sprintf("%.0f", rate)
	r.e2e["decided_per_s"] = total / wall.Seconds()
	r.e2e["cpu_ms_per_decided"] = ms(cpu) / total
	r.e2e["alloc_kb_per_decided"] = float64(allocBytes) / 1024 / total
	r.e2e["builds_per_commit"] = ratio(float64(pool.BuildsStarted), float64(pool.Committed))
	r.e2e["worker_ms_per_commit"] = ratio(ms(pool.WorkerBusy), float64(pool.Committed))
	r.e2e["turnaround_p50_ms"] = metrics.Percentile(turnMs, 50)
	r.e2e["turnaround_p95_ms"] = metrics.Percentile(turnMs, 95)
	// The simulator commits independent changes that become ready at one
	// virtual instant in map order, so the commit order does not repeat; which
	// changes land, and the build and worker-time counts, do.
	r.hash, r.hashKind = hashSet(ids), "set"

	if p.tr != nil {
		fillSimLayers(r, s, probes, &pool, total)
	}
	return r, nil
}

// checkSim is the oracle of one simulated stream, from the workload's ground
// truth alone: every change decided once, the simulator's own violation
// counters zero, every committed change green in isolation and no two
// committed changes in real conflict.
func checkSim(r *result, w *workload.Workload, res *sim.Result) {
	n := len(w.Changes)
	if res.GreenViolations != 0 || res.Undecided != 0 {
		r.fail(res.GreenViolations+res.Undecided, "oracle: simulator reports %d green violations, %d undecided",
			res.GreenViolations, res.Undecided)
	}
	if res.Committed+res.Rejected != n || len(res.CommittedChanges) != res.Committed {
		r.fail(1, "oracle: %d committed + %d rejected of %d changes, %d in the commit list",
			res.Committed, res.Rejected, n, len(res.CommittedChanges))
	}
	landed := make(map[int]bool, len(res.CommittedChanges))
	for _, idx := range res.CommittedChanges {
		if idx < 0 || idx >= n || landed[idx] {
			r.fail(1, "oracle: commit list holds %d twice or out of range", idx)
			continue
		}
		landed[idx] = true
		if !w.Changes[idx].Succeeds {
			r.fail(1, "oracle: change %d fails in isolation and was committed", idx)
		}
	}
	order := make([]int, 0, len(landed))
	for idx := range landed {
		order = append(order, idx)
	}
	sort.Ints(order)
	for _, idx := range order {
		for other := range w.Changes[idx].RealConflicts {
			if other > idx && landed[other] {
				r.fail(1, "oracle: changes %d and %d really conflict and both landed", idx, other)
			}
		}
	}
}

// simProbes wraps the two injectable seams of a simulated run: the strategy
// (time and calls inside Plan = strategies + speculation) and the predictor
// (calls, and the time of every 64th). It accumulates over the streams.
type simProbes struct {
	tr        *tracer
	root      int // the current stream's sim.Run span
	runS      float64
	planS     float64
	planCalls int
	predCalls int
	predTimed int
	predNs    int64
}

func newSimProbes(tr *tracer) *simProbes { return &simProbes{tr: tr, root: -1} }

type timedStrategy struct {
	sim.Strategy
	p *simProbes
}

func (t timedStrategy) Plan(st *sim.State) []sim.BuildSpec {
	sp := t.p.tr.begin("strategy.Plan", "", t.p.root)
	start := time.Now()
	out := t.Strategy.Plan(st)
	t.p.planS += time.Since(start).Seconds()
	t.p.planCalls++
	t.p.tr.end(sp)
	return out
}

func (p *simProbes) wrap(s sim.Strategy) sim.Strategy { return timedStrategy{s, p} }

type countedPredictor struct {
	inner predict.Predictor
	p     *simProbes
}

const predictSampleEvery = 64

// sampled counts a predictor call and times every 64th.
func (c countedPredictor) sampled(call func() float64) float64 {
	c.p.predCalls++
	if c.p.predCalls%predictSampleEvery != 0 {
		return call()
	}
	start := time.Now()
	v := call()
	c.p.predNs += int64(time.Since(start))
	c.p.predTimed++
	return v
}

func (c countedPredictor) PredictSuccess(ch *change.Change) float64 {
	return c.sampled(func() float64 { return c.inner.PredictSuccess(ch) })
}

func (c countedPredictor) PredictConflict(a, b *change.Change) float64 {
	return c.sampled(func() float64 { return c.inner.PredictConflict(a, b) })
}

func (p *simProbes) predictor(inner predict.Predictor) predict.Predictor {
	return countedPredictor{inner, p}
}
