package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// The A/A check: every workload is run N times as set A and N times as set
// B — the same program, the same seeds — interleaved A B B A so that slow
// drift of the machine lands on both sets. A benchmark whose two sets
// disagree by more than a metric's bound cannot gate that metric.

// benchmarkFile is the part of BENCHMARK.json the check needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type childResult struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	hash string
}

func runChild(workload string, seed int64, seconds float64) (*childResult, error) {
	out, err := child("-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	for _, l := range lines {
		if f := strings.Fields(string(l)); len(f) >= 4 && f[0] == "hash" {
			res.hash = f[2] + " " + f[3]
		}
	}
	return &res, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	at := func(p float64) float64 {
		pos := p * float64(len(v)+1)
		lo := int(pos)
		if lo < 1 {
			return v[0]
		}
		if lo >= len(v) {
			return v[len(v)-1]
		}
		return v[lo-1] + (pos-float64(lo))*(v[lo]-v[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func runAA(n int, seed int64, seconds float64, outPath string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -aa reads the bounds from BENCHMARK.json in the current directory: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
		return 2
	}

	var md strings.Builder
	fmt.Fprintf(&md, "# A/A repeatability, N = %d per set, seeds %d..%d, -seconds %g\n\n", n, seed, seed+int64(n)-1, seconds)
	md.WriteString("Two sets of runs of the same program on the same seeds, interleaved A B B A. `diff` is the\n" +
		"distance between the two medians as a share of A's; `spread` is the distance between the\n" +
		"first and third quartile of a set as a share of its median (the seeds differ within a set, so\n" +
		"it holds both machine noise and the inputs' own variation). A metric fails when `diff`\n" +
		"exceeds its bound; a workload fails when an operation failed or when two runs of one seed\n" +
		"give different hashes where the hash must repeat (every kind but `free`).\n\n")
	failures := 0
	for _, w := range workloads {
		sets := [2][]*childResult{}
		for i := 0; i < n; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, set := range order {
				res, err := runChild(w.name, seed+int64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				sets[set] = append(sets[set], res)
			}
			fmt.Fprintf(os.Stderr, "aa: %s pair %d/%d done\n", w.name, i+1, n)
		}
		fmt.Fprintf(&md, "## %s\n\n", w.name)
		hashesEqual, failed := 0, 0
		for i := range sets[0] {
			if sets[0][i].hash == sets[1][i].hash {
				hashesEqual++
			}
			failed += sets[0][i].Failed + sets[1][i].Failed
		}
		hashKind := strings.Fields(sets[0][0].hash + " ?")[0]
		fmt.Fprintf(&md, "Failed operations: %d. Hashes equal between A and B on %d of %d seeds (%s).\n\n",
			failed, hashesEqual, n, hashKind)
		if failed > 0 {
			failures++
		}
		// Where the hash must repeat, two runs of one seed that decide
		// differently fail the check like a metric out of bounds does.
		if hashKind != "free" && hashesEqual < n {
			failures++
		}
		md.WriteString("| metric | unit | A median [q1, q3] | B median [q1, q3] | spread A | spread B | diff | bound | |\n")
		md.WriteString("|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range bf.EndToEnd {
			var v [2][]float64
			for set := range sets {
				for _, res := range sets[set] {
					v[set] = append(v[set], res.Metrics[m.Name].Value)
				}
			}
			a1, a2, a3 := quartiles(v[0])
			b1, b2, b3 := quartiles(v[1])
			diff := ratio(b2-a2, a2)
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > m.Bound {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(&md, "| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.2f %% | %.2f %% | %.2f %% | %.0f %% | %s |\n",
				m.Name, m.Unit, a2, a1, a3, b2, b1, b3, 100*ratio(a3-a1, a2), 100*ratio(b3-b1, b2), 100*diff, 100*m.Bound, verdict)
		}
		md.WriteString("\n")
	}
	if err := os.WriteFile(outPath, []byte(md.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", outPath, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "aa: wrote %s, %d failures\n", outPath, failures)
	if failures > 0 {
		return 1
	}
	return 0
}
