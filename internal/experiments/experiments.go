// Package experiments regenerates every figure and headline number of the
// paper's evaluation (§8) from the synthetic workload substrate: each
// ExpXX function runs the corresponding experiment and returns a Report with
// the rendered figure plus the key metrics, which cmd/sqsim prints and
// bench_test.go asserts on. See DESIGN.md's per-experiment index.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mastergreen/internal/metrics"
	"mastergreen/internal/predict"
	"mastergreen/internal/sim"
	"mastergreen/internal/strategies"
	"mastergreen/internal/workload"
)

// Options scales experiment cost.
type Options struct {
	// Seed makes every experiment deterministic.
	Seed int64
	// Quick shrinks workload sizes and sweep grids for fast benchmarking;
	// the full setting approximates the paper's sweep resolution.
	Quick bool
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// count picks a workload size.
func (o Options) count(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Report is one regenerated experiment.
type Report struct {
	ID      string
	Title   string
	Text    string             // rendered figure/table, terminal-friendly
	Metrics map[string]float64 // headline numbers for assertions
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: map[string]float64{}}
}

// rates and worker grids of the paper's Figs. 10–13.
func (o Options) rateGrid() []float64 {
	if o.Quick {
		return []float64{100, 300, 500}
	}
	return []float64{100, 200, 300, 400, 500}
}

func (o Options) workerGrid() []int {
	if o.Quick {
		return []int{100, 300, 500}
	}
	return []int{100, 200, 300, 400, 500}
}

// TrainPredictor fits the success and conflict models on a dedicated
// historical workload (70/30 methodology, §7.2) and returns the production
// predictor. The success model is trained on isolated build outcomes — the
// paper's decomposition keeps P_succ(C) (would C pass alone?) separate from
// P_conf(Ci,Cj); mixing eventual outcomes into P_succ would double-count
// conflict mass that Eqs. 4–5 already subtract explicitly.
func TrainPredictor(seed int64, n int) (predict.Learned, predict.Metrics, error) {
	return TrainPredictorOn(workload.Config{Seed: seed + 7777, Count: n, RatePerHour: 300})
}

// TrainPredictorOn trains the success/conflict models on a history drawn
// from the given workload distribution. Cells whose traffic differs
// structurally from the default stream (e.g. the adaptive-batching cell's
// reliable low-conflict changes) train on their own distribution, exactly
// as the production predictor trains on its own repo's history — a
// miscalibrated success prior makes the batcher's expected-cost model
// refuse batch sizes the traffic would support.
func TrainPredictorOn(cfg workload.Config) (predict.Learned, predict.Metrics, error) {
	seed := cfg.Seed
	hist := workload.Generate(cfg)
	X, y := hist.IsolatedTrainingData()
	trX, trY, vaX, vaY := predict.Split(X, y, 0.7, seed)
	sm, err := predict.Train(predict.SuccessFeatureNames, trX, trY, predict.TrainConfig{Epochs: 60})
	if err != nil {
		return predict.Learned{}, predict.Metrics{}, err
	}
	mt := predict.Evaluate(sm, vaX, vaY)
	cX, cy := hist.ConflictTrainingData(seed)
	cm, err := predict.Train(predict.ConflictFeatureNames, cX, cy, predict.TrainConfig{Epochs: 40})
	if err != nil {
		return predict.Learned{}, predict.Metrics{}, err
	}
	return predict.Learned{SuccessModel: sm, ConflictModel: cm}, mt, nil
}

// runCell simulates one (workload, strategy, workers) cell.
func runCell(w *workload.Workload, s sim.Strategy, workers int, analyzer bool) *sim.Result {
	return sim.Run(w, s, sim.Config{Workers: workers, UseAnalyzer: analyzer})
}

// gridCell is one independent simulation of a figure grid. The strategy is
// built by the goroutine that runs the cell, because strategies carry
// per-run state; the workload and a trained predictor are only read.
type gridCell struct {
	w        *workload.Workload
	strategy func() sim.Strategy
	workers  int
	analyzer bool
}

// runCells simulates the cells on up to GOMAXPROCS goroutines and returns
// their results by cell index, so a report assembled from them is the one a
// sequential sweep would produce.
func runCells(cells []gridCell) []*sim.Result {
	out := make([]*sim.Result, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for n := min(runtime.GOMAXPROCS(0), len(cells)); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
				c := cells[i]
				out[i] = runCell(c.w, c.strategy(), c.workers, c.analyzer)
			}
		}()
	}
	wg.Wait()
	return out
}

// gridStrategies returns constructors for the named comparison strategies
// over a workload, in the given order. The SubmitQueue entry uses a
// logistic-regression model trained on a separate historical workload (never
// the evaluation one), as in §7.2.
func gridStrategies(w *workload.Workload, trained predict.Predictor, names ...string) []func() sim.Strategy {
	out := make([]func() sim.Strategy, len(names))
	for i, name := range names {
		switch name {
		case "Oracle":
			out[i] = func() sim.Strategy { return strategies.NewOracle(w) }
		case "SubmitQueue":
			out[i] = func() sim.Strategy { return strategies.NewSubmitQueue(w, trained) }
		case "Speculate-all":
			out[i] = func() sim.Strategy { return strategies.NewSpeculateAll(w) }
		case "Optimistic":
			out[i] = func() sim.Strategy { return strategies.Optimistic{} }
		case "Single-Queue":
			out[i] = func() sim.Strategy { return strategies.SingleQueue{} }
		default:
			panic("experiments: unknown strategy " + name)
		}
	}
	return out
}

// ratio returns a/b guarding against division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fmtF renders a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// sortedKeys returns map keys in sorted order (deterministic reports).
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MetricsBlock renders the metrics map as an aligned block for the CLI.
func (r *Report) MetricsBlock() string {
	var b strings.Builder
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(&b, "  %-40s %10.4f\n", k, r.Metrics[k])
	}
	return b.String()
}

// percentiles used throughout the turnaround figures.
var pcts = []struct {
	name string
	p    float64
}{{"P50", 50}, {"P95", 95}, {"P99", 99}}

func pctOf(res *sim.Result, p float64) float64 {
	return metrics.Percentile(res.TurnaroundCommittedMin, p)
}
