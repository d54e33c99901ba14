package sim_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"mastergreen/internal/predict"
	"mastergreen/internal/sim"
	"mastergreen/internal/strategies"
	"mastergreen/internal/workload"
)

// commitSequenceHash is an FNV-64a hash of the commit order.
func commitSequenceHash(committed []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, i := range committed {
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestRunMatchesPinnedResult pins two replays' commit order, builds and
// worker time, so any change to the engine's constants — plan interval
// (30 s), incremental build factor (0.4), flake step count (5), runaway guard
// (10 000 h) — fails it. The oracle run is sensitive to the plan interval
// only: it never builds a subject twice and injects no flakes. The static
// predictor's run rebuilds subjects and injects flakes, so it moves if any of
// the first three constants does.
func TestRunMatchesPinnedResult(t *testing.T) {
	w := workload.Generate(workload.IOSConfig(1, 300, 250))
	for _, tc := range []struct {
		name       string
		pred       predict.Predictor
		flakeRate  float64
		committed  int
		orderHash  uint64
		builds     int
		workerBusy time.Duration
	}{
		{"oracle", w.OraclePredictor(), 0, 226, 0xe224d6b50321bd21, 300, 554877346797279},
		{"static-flaky", predict.Static{Success: 0.85, Conflict: 0.05}, 0.02, 226, 0x1c886602dc24706d, 2092, 2286149874284165},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.Config{Workers: 200, UseAnalyzer: true, FlakePerStepRate: tc.flakeRate, FlakeSeed: 1}
			res := sim.Run(w, strategies.NewSubmitQueue(w, tc.pred), cfg)
			if res.Undecided != 0 || res.GreenViolations != 0 {
				t.Fatalf("%d undecided, %d green violations", res.Undecided, res.GreenViolations)
			}
			if n, h := len(res.CommittedChanges), commitSequenceHash(res.CommittedChanges); n != tc.committed || h != tc.orderHash {
				t.Errorf("committed %d changes (order hash %#x), want %d (%#x)", n, h, tc.committed, tc.orderHash)
			}
			if res.BuildsStarted != tc.builds || res.WorkerBusy != tc.workerBusy {
				t.Errorf("%d builds, %d ns worker time; want %d, %d ns",
					res.BuildsStarted, int64(res.WorkerBusy), tc.builds, int64(tc.workerBusy))
			}
		})
	}
}
