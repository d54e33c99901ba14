package experiments

import "testing"

// TestAblationLeanCI is the lean-CI acceptance gate (DESIGN.md §4j): pruning
// plus predictor-gated skipping must cut fleet worker-minutes per committed
// change by at least 30% while holding P50 turnaround within 1.05x of the
// baseline, committing the identical change set, and never violating
// greenness (quick scale; `sqsim -exp ablation-leanci -full` runs the same
// floors over the full 600-change run).
func TestAblationLeanCI(t *testing.T) {
	r := AblationLeanCI(opts())
	checkReport(t, r)
	if r.Metrics["green_violations"] != 0 {
		t.Fatalf("green violations: %.0f\n%s", r.Metrics["green_violations"], r.Text)
	}
	if r.Metrics["identical_committed_sets_prune"] != 1 {
		t.Fatalf("pruning changed the committed set:\n%s", r.Text)
	}
	if r.Metrics["identical_committed_sets_lean"] != 1 {
		t.Fatalf("skipping changed the committed set:\n%s", r.Text)
	}
	if r.Metrics["branches_skipped"] <= 0 || r.Metrics["builds_skipped"] <= 0 {
		t.Fatalf("skip machinery idle in the lean cell:\n%s", r.Text)
	}
	if testing.Short() {
		t.Skip("headline gates need the full quick simulation margins")
	}
	if got := r.Metrics["reduction_frac"]; got < 0.30 {
		t.Fatalf("compute reduction %.1f%%, want >= 30%%:\n%s", got*100, r.Text)
	}
	if got := r.Metrics["p50_ratio"]; got > 1.05 {
		t.Fatalf("P50 turnaround ratio %.3f, want <= 1.05:\n%s", got, r.Text)
	}
}
