package experiments

import (
	"strings"
	"testing"
)

// All experiment tests run in Quick mode; the bench harness exercises the
// full-scale versions.

func opts() Options { return Options{Seed: 1, Quick: true} }

func checkReport(t *testing.T, r *Report) {
	t.Helper()
	if r.ID == "" || r.Title == "" {
		t.Fatalf("incomplete report: %+v", r)
	}
	if strings.TrimSpace(r.Text) == "" {
		t.Fatalf("%s: empty text", r.ID)
	}
	if len(r.Metrics) == 0 {
		t.Fatalf("%s: no metrics", r.ID)
	}
	if r.MetricsBlock() == "" {
		t.Fatalf("%s: empty metrics block", r.ID)
	}
}

func TestFig1(t *testing.T) {
	r := Fig1(opts())
	checkReport(t, r)
	p2 := r.Metrics["iOS/p_real_conflict_n2"]
	if p2 < 0.01 || p2 > 0.15 {
		t.Errorf("iOS p2 = %v, want ≈0.05", p2)
	}
	// The curve must grow with concurrency wherever both points exist.
	if p8, ok := r.Metrics["iOS/p_real_conflict_n8"]; ok && p8 <= p2 {
		t.Errorf("curve not increasing: p2=%v p8=%v", p2, p8)
	}
}

func TestFig2(t *testing.T) {
	r := Fig2(opts())
	checkReport(t, r)
	p1 := r.Metrics["p_breakage_1h"]
	p10 := r.Metrics["p_breakage_10h"]
	p100 := r.Metrics["p_breakage_100h"]
	if !(p1 < p10 && p10 < p100) {
		t.Errorf("breakage not increasing: %v %v %v", p1, p10, p100)
	}
	if p10 < 0.08 || p10 > 0.25 {
		t.Errorf("p(10h) = %v, paper: 10–20%%", p10)
	}
}

func TestFig9(t *testing.T) {
	r := Fig9(opts())
	checkReport(t, r)
	med := r.Metrics["iOS/median_min"]
	if med < 20 || med > 35 {
		t.Errorf("median = %v, want ≈27", med)
	}
}

func TestFig10(t *testing.T) {
	r := Fig10(opts())
	checkReport(t, r)
	// With 2000 workers, median Oracle turnaround is near the build-duration
	// median; contention only adds serialization cost at higher rates.
	p50lo := r.Metrics["p50_rate100"]
	p50hi := r.Metrics["p50_rate500"]
	if p50lo < 15 || p50lo > 90 {
		t.Errorf("p50@100 = %v", p50lo)
	}
	if p50hi < p50lo-5 {
		t.Errorf("higher rate should not be faster: %v vs %v", p50hi, p50lo)
	}
}

func TestFig11Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep")
	}
	r := Fig11(opts())
	checkReport(t, r)
	// SubmitQueue stays within a small multiple of Oracle at the well
	// provisioned corner, and the baselines are much worse there.
	sq := r.Metrics["SubmitQueue/P95/rate300/w500"]
	sa := r.Metrics["Speculate-all/P95/rate300/w500"]
	op := r.Metrics["Optimistic/P95/rate300/w500"]
	if sq > 5 {
		t.Errorf("SubmitQueue P95 ratio = %v, want small multiple of Oracle", sq)
	}
	if sa < sq || op < sq {
		t.Errorf("baselines should trail SubmitQueue: sq=%v sa=%v op=%v", sq, sa, op)
	}
}

func TestFig12Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep")
	}
	r := Fig12(opts())
	checkReport(t, r)
	sq := r.Metrics["SubmitQueue/rate300/w500"]
	single := r.Metrics["Single-Queue/rate300/w500"]
	if sq < 0.4 || sq > 1.05 {
		t.Errorf("SubmitQueue throughput ratio = %v", sq)
	}
	if single > sq {
		t.Errorf("Single-Queue throughput %v should trail SubmitQueue %v", single, sq)
	}
}

func TestFig13Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep")
	}
	r := Fig13(opts())
	checkReport(t, r)
	// The conflict analyzer must help the Oracle substantially at some cell.
	improved := false
	for k, v := range r.Metrics {
		if strings.HasPrefix(k, "Oracle/") && v > 0.2 {
			improved = true
			break
		}
	}
	if !improved {
		t.Error("conflict analyzer shows no Oracle improvement anywhere")
	}
}

func TestFig14(t *testing.T) {
	r := Fig14(opts())
	checkReport(t, r)
	g := r.Metrics["overall_green_pct"]
	if g < 35 || g > 70 {
		t.Errorf("green%% = %v, paper: 52%%", g)
	}
}

func TestModelAccuracyReport(t *testing.T) {
	r := ModelAccuracy(opts())
	checkReport(t, r)
	if r.Metrics["isolated_accuracy"] < 0.95 {
		t.Errorf("isolated accuracy = %v", r.Metrics["isolated_accuracy"])
	}
	if r.Metrics["final_accuracy"] < 0.80 {
		t.Errorf("final accuracy = %v", r.Metrics["final_accuracy"])
	}
}

func TestSingleQueueBacklog(t *testing.T) {
	r := SingleQueueBacklog(opts())
	checkReport(t, r)
	if d := r.Metrics["analytic_last_turnaround_days"]; d < 20 {
		t.Errorf("analytic = %v days, paper: over 20", d)
	}
	if d := r.Metrics["sim_last_turnaround_days"]; d < 0.5 {
		t.Errorf("sim backlog = %v days, expected growth", d)
	}
}

func TestAblationSelection(t *testing.T) {
	r := AblationSelection(opts())
	checkReport(t, r)
	if r.Metrics["top_k_agreement"] < 0.999 {
		t.Errorf("greedy/exhaustive agreement = %v", r.Metrics["top_k_agreement"])
	}
}

func TestAblationConflictDetection(t *testing.T) {
	r := AblationConflictDetection(opts())
	checkReport(t, r)
	if r.Metrics["union-graph_correct"] != 3 || r.Metrics["equation-6_correct"] != 3 {
		t.Errorf("exact methods wrong: %v", r.Metrics)
	}
	if r.Metrics["name-intersection_correct"] != 2 {
		t.Errorf("name intersection should miss exactly the Fig. 8 case: %v",
			r.Metrics["name-intersection_correct"])
	}
}

func TestAblationIncremental(t *testing.T) {
	r := AblationIncremental(opts())
	checkReport(t, r)
	if r.Metrics["savings_fraction"] <= 0 {
		t.Errorf("no incremental savings: %v", r.Metrics)
	}
}

func TestAblationSpecDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	r := AblationSpecDepth(opts())
	checkReport(t, r)
	d1 := r.Metrics["norm_p95_depth1"]
	d16 := r.Metrics["norm_p95_depth16"]
	if d16 > d1 {
		t.Errorf("deeper speculation should not hurt: depth1=%v depth16=%v", d1, d16)
	}
}

func TestAblationBatching(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	r := AblationBatching(opts())
	checkReport(t, r)
	// Pairing changes must save builds at batch size 2. Larger batches are
	// not asserted: on this conflict-heavy stream bisect-on-failure overhead
	// can exceed the savings — the very tradeoff the ablation demonstrates.
	b1 := r.Metrics["builds_batch1"]
	b2 := r.Metrics["builds_batch2"]
	if b2 >= b1 {
		t.Errorf("batching should reduce builds: batch1=%v batch2=%v", b1, b2)
	}
}

func TestAblationPreemptionGrace(t *testing.T) {
	r := AblationPreemptionGrace(opts())
	checkReport(t, r)
	if r.Metrics["aborted_with_grace"] > r.Metrics["aborted_without_grace"] {
		t.Errorf("grace should not increase aborts: %v", r.Metrics)
	}
}

func TestAblationReordering(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	r := AblationReordering(opts())
	checkReport(t, r)
	if r.Metrics["green_violations"] != 0 {
		t.Fatalf("reordering broke the mainline: %v", r.Metrics["green_violations"])
	}
	if r.Metrics["p50_reorder"] > r.Metrics["p50_base"]*1.2 {
		t.Errorf("reordering hurt P50 badly: %v vs %v",
			r.Metrics["p50_reorder"], r.Metrics["p50_base"])
	}
}

func TestAblationBoosting(t *testing.T) {
	r := AblationBoosting(opts())
	checkReport(t, r)
	if r.Metrics["success_gb_accuracy"] < r.Metrics["success_lr_accuracy"]-0.05 {
		t.Errorf("boosting far behind LR: %v vs %v",
			r.Metrics["success_gb_accuracy"], r.Metrics["success_lr_accuracy"])
	}
	if r.Metrics["conflict_gb_auc"] < 0.7 {
		t.Errorf("boosted conflict AUC = %v", r.Metrics["conflict_gb_auc"])
	}
}
