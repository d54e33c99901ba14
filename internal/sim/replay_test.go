package sim_test

import (
	"reflect"
	"runtime"
	"testing"

	"mastergreen/internal/predict"
	"mastergreen/internal/sim"
	"mastergreen/internal/strategies"
	"mastergreen/internal/workload"
)

// replay runs the paper's strategy over one generated iOS-like stream, with a
// constant base predictor (speculation feedback still moves P_succ per change
// as builds finish).
func replay(w *workload.Workload, workers int) *sim.Result {
	sq := strategies.NewSubmitQueue(w, predict.Static{Success: 0.85, Conflict: 0.05})
	return sim.Run(w, sq, sim.Config{Workers: workers, UseAnalyzer: true})
}

// TestRunCommitSequenceRepeats: a replay is a function of its inputs down to
// the order of commits. Changes that become decidable at one virtual instant
// used to commit in map-iteration order, so CommittedChanges repeated only as
// a set.
func TestRunCommitSequenceRepeats(t *testing.T) {
	w := workload.Generate(workload.IOSConfig(11, 300, 100))
	first := replay(w, 200)
	if first.Committed == 0 || first.GreenViolations != 0 || first.Undecided != 0 {
		t.Fatalf("replay: %d committed, %d green violations, %d undecided",
			first.Committed, first.GreenViolations, first.Undecided)
	}
	for run := 2; run <= 5; run++ {
		res := replay(w, 200)
		if !reflect.DeepEqual(res.CommittedChanges, first.CommittedChanges) {
			t.Fatalf("run %d committed in a different order:\n first %v\n now   %v",
				run, first.CommittedChanges, res.CommittedChanges)
		}
		if res.BuildsStarted != first.BuildsStarted || res.WorkerBusy != first.WorkerBusy {
			t.Fatalf("run %d: %d builds, %v worker time; first run %d, %v",
				run, res.BuildsStarted, res.WorkerBusy, first.BuildsStarted, first.WorkerBusy)
		}
	}
}

// replayBytesPerChange is the heap allocated by one replay of w, per change.
func replayBytesPerChange(w *workload.Workload) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay(w, 500) // the benchmark's worker count
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(w.Changes))
}

// TestRunBytesPerChange keeps the replay loop's allocations tied to the
// builds it starts. When every reconcile materialised the ~500 builds it
// ranked and keyed them through fresh maps and strings, this read ≈ 2 MB per
// change; the bound leaves room for noise, not for that.
func TestRunBytesPerChange(t *testing.T) {
	w := workload.Generate(workload.IOSConfig(12, 400, 100))
	if kb := replayBytesPerChange(w) / 1024; kb > 150 {
		t.Fatalf("a 400-change replay allocates %.0f KB per change, want at most 150", kb)
	}
}

// BenchmarkRunSubmitQueue is sim.Run under the paper's strategy on one
// 400-change stream; KB/change is the number TestRunBytesPerChange bounds.
func BenchmarkRunSubmitQueue(b *testing.B) {
	w := workload.Generate(workload.IOSConfig(12, 400, 100))
	b.ReportAllocs()
	b.ResetTimer()
	var kb float64
	for i := 0; i < b.N; i++ {
		kb += replayBytesPerChange(w) / 1024
	}
	b.ReportMetric(kb/float64(b.N), "KB/change")
}
