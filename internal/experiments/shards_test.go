package experiments

import "testing"

// TestAblationShards is the scale-out acceptance gate: on the many-subtree
// workload the 8-shard configuration must deliver at least 3x the 1-shard
// commit throughput with zero green violations and every configuration's
// committed set identical to the 1-shard run's (quick scale; `sqsim -exp
// ablation-shards -full` runs the 512-change grid, which clears the same
// floor).
func TestAblationShards(t *testing.T) {
	r := AblationShards(opts())
	if r.Metrics["green_violations"] != 0 {
		t.Fatalf("green violations: %.0f", r.Metrics["green_violations"])
	}
	if r.Metrics["identical_committed_sets"] != 1 {
		t.Fatalf("committed sets diverged across shard configurations:\n%s", r.Text)
	}
	if got := r.Metrics["speedup_8"]; got < 3.0 {
		t.Fatalf("8-shard speedup %.2fx, want >= 3x:\n%s", got, r.Text)
	}
	for _, k := range []string{
		"committed_per_hour_1", "committed_per_hour_4",
		"committed_per_hour_8", "committed_per_hour_16",
	} {
		if r.Metrics[k] <= 0 {
			t.Fatalf("metric %s missing or zero:\n%s", k, r.Text)
		}
	}
}
