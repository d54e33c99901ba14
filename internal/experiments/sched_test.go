package experiments

import (
	"sync"
	"testing"
)

// ablationSchedReport runs the (deterministic) sched ablation once and shares
// the report between the acceptance gate and the starvation property below —
// it is the package's most expensive single experiment.
var ablationSchedReport = sync.OnceValue(func() *Report { return AblationSched(opts()) })

// TestAblationSched is the scheduling-subsystem acceptance gate (DESIGN.md
// §4l). The priority cell must cut P0 hotfix P50 turnaround to at most half
// the unprioritized planner's; the adaptive batcher must clear 1.5x the
// fixed Batch-4 baseline's commits per worker-hour and bisect failed batches
// down to the guilty member; greenness must hold everywhere (quick scale;
// `sqsim -exp ablation-sched -full` runs the same floors at full scale).
func TestAblationSched(t *testing.T) {
	r := ablationSchedReport()
	checkReport(t, r)
	if r.Metrics["green_violations"] != 0 {
		t.Fatalf("green violations: %.0f\n%s", r.Metrics["green_violations"], r.Text)
	}
	if r.Metrics["identical_committed_sets_uniform"] != 1 {
		t.Fatalf("uniform-class sched run changed the committed set:\n%s", r.Text)
	}
	if r.Metrics["batch_evictions"] <= 0 {
		t.Fatalf("no guilty-member evictions — batches never bisected:\n%s", r.Text)
	}
	if testing.Short() {
		t.Skip("headline gates need the full quick simulation margins")
	}
	if got := r.Metrics["p0_p50_ratio"]; got > 0.5 {
		t.Fatalf("P0 P50 ratio %.3f, want <= 0.5:\n%s", got, r.Text)
	}
	if got := r.Metrics["batch_throughput_ratio"]; got < 1.5 {
		t.Fatalf("adaptive batching throughput ratio %.3f, want >= 1.5:\n%s", got, r.Text)
	}
}

// TestSchedStarvationFreedom is the starvation-freedom property: under a
// sustained P0 hotfix stream preempting the speculation budget, every P2
// bulk change that carries a deadline is still decided before it — deadline
// aging ramps a P2's weight as slack shrinks, so the hotfix lane can delay
// bulk work but never push it out indefinitely.
func TestSchedStarvationFreedom(t *testing.T) {
	r := ablationSchedReport()
	if misses := r.Metrics["p2_deadline_misses"]; misses != 0 {
		t.Fatalf("%.0f deadlined P2 changes decided past their deadline:\n%s", misses, r.Text)
	}
	if r.Metrics["p2_p50_sched_min"] <= 0 {
		t.Fatalf("no P2 turnaround recorded — lane stamping broken:\n%s", r.Text)
	}
}
