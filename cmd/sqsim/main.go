// Command sqsim regenerates the paper's evaluation: every figure of §8 plus
// the design-choice ablations, rendered as terminal plots and tables.
//
// Usage:
//
//	sqsim                         # run everything in quick mode
//	sqsim -exp fig11              # one experiment
//	sqsim -full                   # paper-scale sweeps (slow)
//	sqsim -list                   # list experiment IDs
//	sqsim -seed 7 -metrics        # print raw metric values too
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mastergreen/internal/experiments"
)

// registry maps experiment IDs to generators, in presentation order.
var registry = []struct {
	id   string
	desc string
	run  func(experiments.Options) *experiments.Report
}{
	{"fig1", "P(real conflict) vs concurrency", experiments.Fig1},
	{"fig2", "P(breakage) vs staleness", experiments.Fig2},
	{"fig9", "build duration CDF", experiments.Fig9},
	{"fig10", "Oracle turnaround CDF", experiments.Fig10},
	{"fig11", "turnaround grid vs Oracle", experiments.Fig11},
	{"fig12", "throughput vs Oracle", experiments.Fig12},
	{"fig13", "conflict analyzer benefit", experiments.Fig13},
	{"fig14", "trunk-based mainline state", experiments.Fig14},
	{"model", "logistic model accuracy (§7.2)", experiments.ModelAccuracy},
	{"t2", "single-queue backlog (§2.2)", experiments.SingleQueueBacklog},
	{"ablation-selection", "greedy vs exhaustive selection", experiments.AblationSelection},
	{"ablation-conflict", "conflict detection methods", experiments.AblationConflictDetection},
	{"ablation-incremental", "minimal build steps savings", experiments.AblationIncremental},
	{"ablation-depth", "speculation depth sweep", experiments.AblationSpecDepth},
	{"ablation-batch", "batching extension", experiments.AblationBatching},
	{"ablation-grace", "preemption grace extension", experiments.AblationPreemptionGrace},
	{"ablation-reorder", "change reordering extension", experiments.AblationReordering},
	{"ablation-boost", "gradient boosting vs logistic regression", experiments.AblationBoosting},
	{"ablation-shards", "sharded multi-planner scale-out", experiments.AblationShards},
	{"ablation-reliability", "retry/quarantine under injected flakiness", experiments.AblationReliability},
	{"ablation-leanci", "obsolete-build pruning + predictor-gated skipping", experiments.AblationLeanCI},
	{"ablation-sched", "priority lanes + adaptive batching", experiments.AblationSched},
	{"loadtest", "serving path: sustained throughput + overload degradation", experiments.Loadtest},
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	full := flag.Bool("full", false, "paper-scale sweeps (slow); default is quick mode")
	seed := flag.Int64("seed", 1, "workload seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	showMetrics := flag.Bool("metrics", false, "print raw metric values")
	flag.Parse()

	if *list {
		for _, e := range registry {
			fmt.Printf("%-22s %s\n", e.id, e.desc)
		}
		return
	}

	o := experiments.Options{Seed: *seed, Quick: !*full}
	ran := 0
	for _, e := range registry {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		start := time.Now()
		r := e.run(o)
		fmt.Printf("==================================================================\n")
		fmt.Printf("%s (%s)\n", r.Title, time.Since(start).Round(time.Millisecond))
		fmt.Printf("==================================================================\n")
		fmt.Println(r.Text)
		if *showMetrics {
			fmt.Println(r.MetricsBlock())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sqsim: unknown experiment %q (try -list)\n", *exp)
		os.Exit(1)
	}
}
