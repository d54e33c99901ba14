package experiments

import (
	"slices"
	"testing"
)

// TestAblationShards is the scale-out gate on the many-subtree workload:
// zero green violations, every configuration's committed set identical to
// the 1-shard run's, and one engine already committing the independent
// subtrees in parallel — at most 1.2 builds per commit and, outside -short,
// in the median of five runs at least half the 8-shard run's commit
// throughput (quick scale; `sqsim -exp ablation-shards -full` runs the
// 512-change grid). A quick run lasts tens of milliseconds of wall clock, so
// one run's throughput ratio is noise; the deterministic signals are checked
// on every run.
func TestAblationShards(t *testing.T) {
	var ratios []float64
	for run := 0; run < 5; run++ {
		r := AblationShards(opts())
		if r.Metrics["green_violations"] != 0 {
			t.Fatalf("green violations: %.0f", r.Metrics["green_violations"])
		}
		if r.Metrics["identical_committed_sets"] != 1 {
			t.Fatalf("committed sets diverged across shard configurations:\n%s", r.Text)
		}
		if got := r.Metrics["builds_per_commit_1"]; got > 1.2 {
			t.Fatalf("1 shard: %.2f builds per commit, want <= 1.2 (a commit staled independent builds):\n%s", got, r.Text)
		}
		for _, k := range []string{
			"committed_per_hour_1", "committed_per_hour_4",
			"committed_per_hour_8", "committed_per_hour_16",
		} {
			if r.Metrics[k] <= 0 {
				t.Fatalf("metric %s missing or zero:\n%s", k, r.Text)
			}
		}
		ratios = append(ratios, r.Metrics["committed_per_hour_1"]/r.Metrics["committed_per_hour_8"])
		if testing.Short() {
			return
		}
	}
	slices.Sort(ratios)
	t.Logf("1-shard / 8-shard committed/h over %d runs: %.2f", len(ratios), ratios)
	if med := ratios[len(ratios)/2]; med < 0.5 {
		t.Fatalf("1 shard commits %.2fx the 8-shard rate in the median of %d runs, want >= 0.5 (runs: %.2f)", med, len(ratios), ratios)
	}
}
