package experiments

import "testing"

// TestLoadtest is the serving-path acceptance gate: the real HTTP stack must
// absorb the sustained open-loop stream without backpressure, decide every
// accepted change (the 202 durability promise), degrade under overload via
// 429s and shed dashboard reads rather than errors or lost submissions, and
// keep both mainlines green throughout. Quick scale here; `sqsim -exp
// loadtest -full` runs the full scale, which additionally targets the
// ≥20k/min sustained and P99 < 50ms floors.
func TestLoadtest(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live HTTP server for several wall-clock seconds")
	}
	r := Loadtest(opts())
	checkReport(t, r)

	if r.Metrics["errors_sustained"] != 0 || r.Metrics["overload_errors"] != 0 {
		t.Fatalf("serving errors: sustained %.0f, overload %.0f\n%s",
			r.Metrics["errors_sustained"], r.Metrics["overload_errors"], r.Text)
	}
	if r.Metrics["throttled_sustained"] != 0 {
		t.Fatalf("backpressure during the sustained phase (%.0f throttled): capacity misconfigured\n%s",
			r.Metrics["throttled_sustained"], r.Text)
	}
	if r.Metrics["accepted"] == 0 {
		t.Fatalf("no submissions accepted:\n%s", r.Text)
	}
	// Every 202 must reach a decision — in both phases.
	if r.Metrics["undecided"] != 0 || r.Metrics["overload_undecided"] != 0 {
		t.Fatalf("accepted changes lost: sustained %.0f, overload %.0f undecided\n%s",
			r.Metrics["undecided"], r.Metrics["overload_undecided"], r.Text)
	}
	// The broken submissions must actually exercise rejection.
	if r.Metrics["rejected"] == 0 {
		t.Fatalf("no rejections — green invariant untested:\n%s", r.Text)
	}
	if r.Metrics["green_violations"] != 0 {
		t.Fatalf("green violations: %.0f\n%s", r.Metrics["green_violations"], r.Text)
	}
	// Overload must visibly degrade: refusals with Retry-After and shed
	// dashboard reads, while still accepting some work.
	if r.Metrics["overload_throttled"] == 0 {
		t.Fatalf("overload phase never throttled:\n%s", r.Text)
	}
	if r.Metrics["overload_retry_after_mean"] < 1 {
		t.Fatalf("Retry-After mean %.1f, want >= 1\n%s", r.Metrics["overload_retry_after_mean"], r.Text)
	}
	if r.Metrics["overload_shed_reads"] == 0 {
		t.Fatalf("overload phase never shed dashboard reads:\n%s", r.Text)
	}
	if r.Metrics["overload_accepted"] == 0 {
		t.Fatalf("overload phase accepted nothing:\n%s", r.Text)
	}
	// The stalled subscriber must lose events to the drop counter, not
	// stall the publisher (the run completing at rate is the liveness half).
	if r.Metrics["events_dropped"] == 0 {
		t.Fatalf("stalled subscriber dropped nothing:\n%s", r.Text)
	}
}
