package experiments

import "testing"

// TestAblationReliability is the headline acceptance test for the
// reliability layer (DESIGN.md §4g): with a 5% injected transient rate per
// step, in-place retries plus verification re-runs must reject no innocent
// change the fault-free run of the same seeded workload accepts, master must
// stay green in both cells, and median committed-change turnaround must stay
// within 1.5x of the fault-free run.
func TestAblationReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("two full simulation cells; skipped in -short")
	}
	r := AblationReliability(opts())
	checkReport(t, r)

	clean := r.Metrics["false_rejections_fault_free"]
	retry := r.Metrics["false_rejections_retry"]
	if retry != clean {
		t.Errorf("false rejections: %v with faults vs %v fault-free, want equal", retry, clean)
	}
	if inj := r.Metrics["flakes_injected"]; inj < 50 {
		t.Errorf("flakes injected = %v, too few to make the claim meaningful", inj)
	}
	if gv := r.Metrics["green_violations"]; gv != 0 {
		t.Errorf("green violations = %v, master must stay green in every cell", gv)
	}
	if ratio := r.Metrics["p50_ratio"]; ratio > 1.5 {
		t.Errorf("P50 turnaround with faults+retry is %.2fx fault-free, want <= 1.5x", ratio)
	}
	if r.Metrics["step_retries"] == 0 {
		t.Error("no in-place step retries recorded; the retry path did not engage")
	}
}

// TestAblationReliabilityDeterministic re-runs the experiment with the same
// seed and requires bit-identical metrics: the injected fault schedule is a
// pure function of the seed and build identities.
func TestAblationReliabilityDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("four full simulation cells; skipped in -short")
	}
	a := AblationReliability(Options{Seed: 7, Quick: true})
	b := AblationReliability(Options{Seed: 7, Quick: true})
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("metric %s differs across identical-seed runs: %v vs %v", k, v, b.Metrics[k])
		}
	}
}
