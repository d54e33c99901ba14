// Command bench is the repository's benchmark: one program that drives the
// real core.Service, api.Server and sim.Run from outside on four fixed-work
// workloads, checks every run with an independent oracle, prints every
// end-to-end metric by name and unit, and in a separate traced run measures
// the layers. See README.md in this directory.
//
//	go run ./bench                                 every workload, one process each
//	go run ./bench -workload window_deep -seed 3   one workload
//	go run ./bench -workload build_bound -trace out.json
//	go run ./bench -aa 10                          A/A repeatability report (AA.md)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured-section size
// every checked-in number was taken at.
const defaultSeconds = 20

func main() {
	workload := flag.String("workload", "", "workload to run (empty: all, one process each)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", defaultSeconds, "size of the measured section; fixes the operation count")
	trace := flag.String("trace", "0", "0: end-to-end metrics; 1 or a file path: traced run with per-layer metrics, spans written to the path")
	aa := flag.Int("aa", 0, "run every workload N times as set A and N times as set B and write AA.md")
	aaOut := flag.String("aa-out", filepath.Join("bench", "AA.md"), "where -aa writes its report")
	fault := flag.String("fault", "", "self-test: 'commit-broken' makes the harness's runner pass BROKEN changes; the run must fail")
	flag.Parse()

	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	switch {
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds, *aaOut))
	case *workload == "":
		if *trace != "0" && *trace != "1" {
			fmt.Fprintln(os.Stderr, "bench: -trace PATH needs -workload; with every workload use -trace 1")
			os.Exit(2)
		}
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	run := findWorkload(*workload)
	if run == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	p := params{workload: *workload, seed: *seed, seconds: *seconds, commitBroken: *fault == "commit-broken"}
	var r *result
	var err error
	traced := *trace != "0" && *trace != ""
	if !traced {
		r, err = runUntraced(run, p)
	} else {
		path := *trace
		if path == "1" {
			path = filepath.Join(".bench_build", "trace_"+*workload+".json")
		}
		r, err = runTraced(run, p, path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	report(r, traced)
	if r.failed > 0 {
		os.Exit(1)
	}
}

// runUntraced measures the end-to-end metrics. The SHA-256 calibration spin
// before and after shows machine drift beside the numbers.
func runUntraced(run workloadFunc, p params) (*result, error) {
	before := calibrate()
	r, err := run(p)
	if err != nil {
		return nil, err
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	r.notes["calib_mops_before"] = fmt.Sprintf("%.1f", before)
	r.notes["calib_mops_after"] = fmt.Sprintf("%.1f", calibrate())
	return r, nil
}

// report prints the human-readable table to stderr and the result line — the
// last line of stdout — as the one JSON object the driver reads.
func report(r *result, traced bool) {
	values, units := r.e2e, e2eUnits
	if traced {
		values, units = r.layer, layerUnits
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "workload %s seed %d: attempted %d failed %d hash %s (%s)\n",
		r.workload, r.seed, r.attempted, r.failed, r.hash, r.hashKind)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-44s %14.4f %s\n", n, values[n], units[n])
	}
	noteKeys := make([]string, 0, len(r.notes))
	for k := range r.notes {
		noteKeys = append(noteKeys, k)
	}
	sort.Strings(noteKeys)
	for _, k := range noteKeys {
		fmt.Fprintf(os.Stderr, "  note %s = %s\n", k, r.notes[k])
	}
	for _, pr := range r.problems {
		fmt.Fprintf(os.Stderr, "  FAILED %s\n", pr)
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metric{}}
	for n, u := range units {
		out.Metrics[n] = metric{values[n], u}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("hash %s %s %s seed %d\n", r.workload, r.hashKind, r.hash, r.seed)
	fmt.Println(string(line))
}

// child runs this binary again for one workload and returns its stdout. One
// workload per process keeps peak_rss_mb and the allocator's state per
// workload.
func child(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

func runAll(seed int64, seconds float64, trace string) int {
	code := 0
	for _, w := range workloads {
		out, err := child("-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", trace)
		os.Stdout.Write(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
