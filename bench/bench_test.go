package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smokeSeconds is 1/50 of the checked-in run length: every workload keeps its
// shape and runs in a fraction of a second.
const smokeSeconds = defaultSeconds / 50.0

func smoke(t *testing.T, workload string, seed int64, commitBroken bool) *result {
	t.Helper()
	r, err := findWorkload(workload)(params{
		workload: workload, seed: seed, seconds: smokeSeconds, commitBroken: commitBroken,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	return r
}

// TestWorkloadsSmoke runs every workload at 1/50 scale: the oracle passes,
// two runs of one seed decide the same (where the workload promises it), and
// another seed decides differently — the seed is actually used.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // build_bound mostly sleeps
			a, b, other := smoke(t, w.name, 1, false), smoke(t, w.name, 1, false), smoke(t, w.name, 2, false)
			for _, r := range []*result{a, b, other} {
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("seed %d: %d of %d operations failed: %v", r.seed, r.failed, r.attempted, r.problems)
				}
				for name := range e2eUnits {
					if name != "peak_rss_mb" && !(r.e2e[name] > 0) {
						t.Errorf("seed %d: %s = %v, want > 0", r.seed, name, r.e2e[name])
					}
				}
			}
			if a.hash == other.hash {
				t.Errorf("seeds 1 and 2 give the same %s hash %s", a.hashKind, a.hash)
			}
			if a.hashKind == "free" {
				return // real time decides which builds meet an injected fault
			}
			if a.hash != b.hash {
				t.Errorf("two runs of seed 1 give %s hashes %s and %s", a.hashKind, a.hash, b.hash)
			}
			if w.name == "window_deep" || w.name == "sim_replay" {
				if x, y := a.e2e["builds_per_commit"], b.e2e["builds_per_commit"]; x != y {
					t.Errorf("two runs of seed 1 give builds_per_commit %v and %v", x, y)
				}
			}
		})
	}
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the program: the same
// workloads, the same metric names and the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct{ Name, Unit string }
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads in the file, %d in the program", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	check := func(kind string, listed []metric, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%d %s metrics in the file, %d in the program", len(listed), kind, len(units))
		}
		for _, m := range listed {
			if units[m.Name] != m.Unit {
				t.Errorf("%s metric %s: unit %q in the file, %q in the program", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	check("end-to-end", bf.EndToEnd, e2eUnits)
	check("per-layer", bf.PerLayer, layerUnits)
}

// TestOracleCatchesBrokenCommit injects the fault the oracle exists for: the
// harness's runner passes BROKEN changes, one lands, the run must fail.
func TestOracleCatchesBrokenCommit(t *testing.T) {
	if r := smoke(t, "window_deep", 1, true); r.failed == 0 {
		t.Fatal("a BROKEN change was committed and the oracle reported no failure")
	}
}
