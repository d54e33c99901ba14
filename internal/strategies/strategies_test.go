package strategies

import (
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/predict"
	"mastergreen/internal/sim"
	"mastergreen/internal/workload"
)

func testWorkload(seed int64, n int, rate float64) *workload.Workload {
	return workload.Generate(workload.IOSConfig(seed, n, rate))
}

func runAll(t *testing.T, w *workload.Workload, workers int) map[string]*sim.Result {
	t.Helper()
	out := map[string]*sim.Result{}
	strats := []sim.Strategy{
		NewOracle(w),
		SingleQueue{},
		Optimistic{},
		NewSpeculateAll(w),
		NewSubmitQueue(w, w.OraclePredictor()),
	}
	for _, s := range strats {
		res := sim.Run(w, s, sim.Config{Workers: workers, UseAnalyzer: true})
		if res.GreenViolations != 0 {
			t.Fatalf("%s: %d green violations", s.Name(), res.GreenViolations)
		}
		if res.Committed+res.Rejected != len(w.Changes) {
			t.Fatalf("%s: decided %d of %d (undecided %d)", s.Name(),
				res.Committed+res.Rejected, len(w.Changes), res.Undecided)
		}
		out[s.Name()] = res
	}
	return out
}

func TestAllStrategiesAgreeOnOutcomes(t *testing.T) {
	// Serializability makes final outcomes scheduling independent: every
	// strategy commits exactly the same set of changes.
	w := testWorkload(1, 300, 200)
	results := runAll(t, w, 150)
	want := results["Oracle"].Committed
	for name, res := range results {
		if res.Committed != want {
			t.Errorf("%s committed %d, oracle %d", name, res.Committed, want)
		}
	}
	eventual := w.EventualOutcomes()
	n := 0
	for _, v := range eventual {
		if v {
			n++
		}
	}
	if want != n {
		t.Fatalf("oracle committed %d, ground truth %d", want, n)
	}
}

func TestOracleIsFastest(t *testing.T) {
	w := testWorkload(2, 300, 250)
	results := runAll(t, w, 150)
	oracle := results["Oracle"].Summary().P95
	for name, res := range results {
		if res.Summary().P95+1e-9 < oracle {
			t.Errorf("%s P95 %.1f beats Oracle %.1f", name, res.Summary().P95, oracle)
		}
	}
}

func TestPaperOrdering(t *testing.T) {
	// The qualitative result of Fig. 11/12: SubmitQueue ≲ small multiple of
	// Oracle; Speculate-all and Optimistic are much worse; Single-Queue is
	// the worst.
	w := testWorkload(3, 500, 300)
	results := runAll(t, w, 200)
	p95 := func(name string) float64 { return results[name].Summary().P95 }

	if p95("SubmitQueue") > 6*p95("Oracle") {
		t.Errorf("SubmitQueue %.1f too slow vs Oracle %.1f", p95("SubmitQueue"), p95("Oracle"))
	}
	if p95("Single-Queue") < p95("SubmitQueue") {
		t.Errorf("Single-Queue %.1f should trail SubmitQueue %.1f",
			p95("Single-Queue"), p95("SubmitQueue"))
	}
	if p95("Speculate-all") < p95("SubmitQueue") {
		t.Errorf("Speculate-all %.1f should trail SubmitQueue %.1f",
			p95("Speculate-all"), p95("SubmitQueue"))
	}
	if p95("Single-Queue") < p95("Optimistic") {
		t.Errorf("Single-Queue %.1f should trail Optimistic %.1f",
			p95("Single-Queue"), p95("Optimistic"))
	}
}

func TestOracleSchedulesOnlyNeededBuilds(t *testing.T) {
	// The oracle never aborts and finishes at most one build per change.
	w := testWorkload(4, 200, 150)
	res := sim.Run(w, NewOracle(w), sim.Config{Workers: 64, UseAnalyzer: true})
	if res.BuildsAborted != 0 {
		t.Fatalf("oracle aborted %d builds", res.BuildsAborted)
	}
	if res.BuildsFinished > len(w.Changes) {
		t.Fatalf("oracle finished %d builds for %d changes", res.BuildsFinished, len(w.Changes))
	}
}

func TestSpeculateAllStartsMoreBuilds(t *testing.T) {
	w := testWorkload(5, 200, 250)
	all := sim.Run(w, NewSpeculateAll(w), sim.Config{Workers: 64, UseAnalyzer: true})
	oracle := sim.Run(w, NewOracle(w), sim.Config{Workers: 64, UseAnalyzer: true})
	if all.BuildsStarted <= oracle.BuildsStarted {
		t.Fatalf("speculate-all started %d, oracle %d", all.BuildsStarted, oracle.BuildsStarted)
	}
}

func TestSubmitQueueWithLearnedModel(t *testing.T) {
	// Train on one workload, run on another: the learned SubmitQueue should
	// land between Oracle and Speculate-all.
	train := testWorkload(6, 4000, 300)
	X, y := train.TrainingData()
	m, err := predict.Train(predict.SuccessFeatureNames, X, y, predict.TrainConfig{Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	cx, cy := train.ConflictTrainingData(1)
	cm, err := predict.Train(predict.ConflictFeatureNames, cx, cy, predict.TrainConfig{Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	learned := predict.Learned{SuccessModel: m, ConflictModel: cm}

	w := testWorkload(7, 300, 250)
	sq := sim.Run(w, NewSubmitQueue(w, learned), sim.Config{Workers: 150, UseAnalyzer: true})
	oracle := sim.Run(w, NewOracle(w), sim.Config{Workers: 150, UseAnalyzer: true})
	specAll := sim.Run(w, NewSpeculateAll(w), sim.Config{Workers: 150, UseAnalyzer: true})
	if sq.GreenViolations != 0 || sq.Committed != oracle.Committed {
		t.Fatalf("learned SQ: %+v vs oracle %+v", sq, oracle)
	}
	if sq.Summary().P95 > specAll.Summary().P95 {
		t.Fatalf("learned SubmitQueue P95 %.1f worse than Speculate-all %.1f",
			sq.Summary().P95, specAll.Summary().P95)
	}
}

func TestBatchStrategyDrainsAndCommits(t *testing.T) {
	w := testWorkload(8, 200, 200)
	b := &Batch{BatchSize: 4}
	res := sim.Run(w, b, sim.Config{Workers: 32, UseAnalyzer: true})
	if res.GreenViolations != 0 {
		t.Fatalf("green violations: %d", res.GreenViolations)
	}
	if res.Committed+res.Rejected != len(w.Changes) {
		t.Fatalf("decided %d of %d", res.Committed+res.Rejected, len(w.Changes))
	}
	// Batching must not commit changes that individually fail.
	eventual := w.EventualOutcomes()
	maxCommits := 0
	for _, v := range eventual {
		if v {
			maxCommits++
		}
	}
	if res.Committed > maxCommits {
		t.Fatalf("batch committed %d > ground-truth max %d", res.Committed, maxCommits)
	}
}

func TestBatchNames(t *testing.T) {
	if (&Batch{BatchSize: 8}).Name() != "Batch-8" {
		t.Fatal("bad name")
	}
	if (&Batch{}).Name() != "Batch-4" {
		t.Fatal("default size name")
	}
}

func TestMemoPredictorCaches(t *testing.T) {
	calls := 0
	inner := countingPredictor{&calls}
	m := newMemoPredictor(inner)
	w := testWorkload(9, 10, 100)
	a, b := w.Changes[0].Meta, w.Changes[1].Meta
	m.PredictSuccess(a)
	m.PredictSuccess(a)
	m.PredictConflict(a, b)
	m.PredictConflict(b, a) // symmetric key
	if calls != 2 {
		t.Fatalf("inner calls = %d, want 2", calls)
	}
}

type countingPredictor struct{ calls *int }

func (c countingPredictor) PredictSuccess(*change.Change) float64 {
	*c.calls++
	return 0.5
}

func (c countingPredictor) PredictConflict(a, b *change.Change) float64 {
	*c.calls++
	return 0.1
}
