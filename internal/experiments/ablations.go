package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"mastergreen/internal/buildgraph"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/clock"
	"mastergreen/internal/core"
	"mastergreen/internal/metrics"
	"mastergreen/internal/predict"
	"mastergreen/internal/repo"
	"mastergreen/internal/sim"
	"mastergreen/internal/speculation"
	"mastergreen/internal/strategies"
	"mastergreen/internal/textplot"
	"mastergreen/internal/workload"
)

// AblationSelection compares the greedy best-first build selection (§7.1)
// against exhaustive enumeration + sort on small pending sets: the selected
// top-k builds must be identical while the greedy search visits a bounded
// number of nodes instead of 2^n.
func AblationSelection(o Options) *Report {
	r := newReport("ablation-selection", "Ablation — greedy best-first vs exhaustive selection")
	pred := predict.Static{Success: 0.8, Conflict: 0.1}
	agree := 0
	total := 0
	for n := 2; n <= 10; n++ {
		pending := make([]*change.Change, n)
		for i := range pending {
			pending[i] = &change.Change{ID: change.ID(fmt.Sprintf("c%d", i))}
		}
		budget := n
		greedy := speculation.New(pred).Plan(speculation.Request{Pending: pending, Budget: budget})
		// Exhaustive: no budget (full enumeration), then take top-k.
		full := speculation.New(pred).Plan(speculation.Request{Pending: pending, Budget: 0})
		k := budget
		if len(full.Builds) < k {
			k = len(full.Builds)
		}
		want := map[string]bool{}
		for _, b := range full.Builds[:k] {
			want[b.Key()] = true
		}
		for _, b := range greedy.Builds {
			total++
			if want[b.Key()] {
				agree++
			}
		}
	}
	frac := ratio(float64(agree), float64(total))
	r.Metrics["top_k_agreement"] = frac
	r.Text = fmt.Sprintf("greedy top-k matches exhaustive top-k on %.1f%% of builds (n=2..10)\n", frac*100)
	return r
}

// AblationConflictDetection compares the three conflict-detection methods of
// §5.2 on the Fig. 8 scenario and on plain content edits: name intersection
// is cheapest but misses structure changes; the union-graph and Equation 6
// methods agree.
func AblationConflictDetection(o Options) *Report {
	r := newReport("ablation-conflict", "Ablation — conflict detection methods (§5.2)")
	base := repo.NewSnapshot(map[string]string{
		"x/BUILD": "target x srcs=x.go",
		"x/x.go":  "x v1",
		"y/BUILD": "target y srcs=y.go deps=//x:x",
		"y/y.go":  "y v1",
		"z/BUILD": "target z srcs=z.go",
		"z/z.go":  "z v1",
	})
	edit := func(s repo.Snapshot, path, content string) repo.Snapshot {
		cur, ok := s.Read(path)
		fc := repo.FileChange{Path: path, Op: repo.OpCreate, NewContent: content}
		if ok {
			fc = repo.FileChange{Path: path, Op: repo.OpModify, BaseHash: repo.HashContent(cur), NewContent: content}
		}
		next, err := s.Apply(repo.Patch{Changes: []repo.FileChange{fc}})
		if err != nil {
			panic(err)
		}
		return next
	}
	scenarios := []struct {
		name   string
		c1, c2 func() repo.Snapshot
		isConf bool // ground truth
	}{
		{"independent edits", func() repo.Snapshot { return edit(base, "x/x.go", "x v2") },
			func() repo.Snapshot { return edit(base, "z/z.go", "z v2") }, false},
		{"shared target", func() repo.Snapshot { return edit(base, "x/x.go", "x v2") },
			func() repo.Snapshot { return edit(base, "y/y.go", "y v2") }, true},
		{"fig8 structure change", func() repo.Snapshot { return edit(base, "x/x.go", "x v2") },
			func() repo.Snapshot { return edit(base, "z/BUILD", "target z srcs=z.go deps=//y:y") }, true},
	}
	gH, err := buildgraph.Analyze(base)
	if err != nil {
		r.Text = err.Error()
		return r
	}
	rows := [][]string{}
	correct := map[string]int{"name-intersection": 0, "union-graph": 0, "equation-6": 0}
	for _, sc := range scenarios {
		s1, s2 := sc.c1(), sc.c2()
		g1, _ := buildgraph.Analyze(s1)
		g2, _ := buildgraph.Analyze(s2)
		d1, d2 := buildgraph.Diff(gH, g1), buildgraph.Diff(gH, g2)
		name := buildgraph.NameIntersectionConflict(d1, d2)
		union := buildgraph.UnionConflict(gH, g1, g2)
		// Equation 6 needs the combined snapshot.
		var eq6 bool
		comb := s1
		for _, p := range s2.Paths() {
			c2c, _ := s2.Read(p)
			c1c, okc := comb.Read(p)
			if !okc {
				comb, _ = comb.Apply(repo.Patch{Changes: []repo.FileChange{{Path: p, Op: repo.OpCreate, NewContent: c2c}}})
			} else if c1c != c2c {
				bc, _ := base.Read(p)
				if c2c != bc {
					comb, _ = comb.Apply(repo.Patch{Changes: []repo.FileChange{{Path: p, Op: repo.OpModify, BaseHash: repo.HashContent(c1c), NewContent: c2c}}})
				}
			}
		}
		if gc, err := buildgraph.Analyze(comb); err == nil {
			eq6 = buildgraph.Equation6Conflict(d1, d2, buildgraph.Diff(gH, gc))
		}
		mark := func(got bool, key string) string {
			if got == sc.isConf {
				correct[key]++
				return fmt.Sprintf("%v ✓", got)
			}
			return fmt.Sprintf("%v ✗", got)
		}
		rows = append(rows, []string{sc.name, fmt.Sprint(sc.isConf),
			mark(name, "name-intersection"), mark(union, "union-graph"), mark(eq6, "equation-6")})
	}
	for k, v := range correct {
		r.Metrics[k+"_correct"] = float64(v)
	}
	r.Text = textplot.Table(r.Title,
		[]string{"scenario", "truth", "name-intersection", "union-graph", "equation-6"}, rows)
	return r
}

// AblationIncremental measures the §6 minimal-build-steps and artifact-cache
// savings on a speculative chain executed by the real build controller.
func AblationIncremental(o Options) *Report {
	r := newReport("ablation-incremental", "Ablation — minimal build steps & artifact caching (§6)")
	// A 12-target chain monorepo; each change touches one target's source.
	files := map[string]string{}
	for i := 0; i < 12; i++ {
		dep := ""
		if i > 0 {
			dep = fmt.Sprintf(" deps=//t%d:t%d", i-1, i-1)
		}
		files[fmt.Sprintf("t%d/BUILD", i)] = fmt.Sprintf("target t%d srcs=s.go%s", i, dep)
		files[fmt.Sprintf("t%d/s.go", i)] = "v1"
	}
	base := repo.NewSnapshot(files)
	gH, err := buildgraph.Analyze(base)
	if err != nil {
		r.Text = err.Error()
		return r
	}
	// Chain build: H⊕C1, H⊕C1⊕C2, H⊕C1⊕C2⊕C3 where Ci edits t_{3i}.
	ctrl := buildsys.NewController(4, nil)
	snap := base
	var priorDelta buildgraph.Delta
	steps := []change.BuildStep{{Name: "compile", Kind: change.StepCompile}, {Name: "unit", Kind: change.StepUnitTest}}
	for i := 1; i <= 3; i++ {
		path := fmt.Sprintf("t%d/s.go", 3*i)
		cur, _ := snap.Read(path)
		next, _ := snap.Apply(repo.Patch{Changes: []repo.FileChange{{
			Path: path, Op: repo.OpModify, BaseHash: repo.HashContent(cur), NewContent: fmt.Sprintf("v%d", i+1),
		}}})
		g, _ := buildgraph.Analyze(next)
		delta := buildgraph.Diff(gH, g)
		prior := map[string]bool{}
		for name, h := range priorDelta {
			if delta[name] == h {
				prior[name] = true
			}
		}
		targets := map[string]string{}
		for name, h := range delta {
			targets[name] = h
		}
		res := ctrl.Run(context.Background(), buildsys.Request{
			Key: fmt.Sprintf("chain-%d", i), Snapshot: next, Steps: steps,
			Targets: targets, PriorTargets: prior,
		})
		if !res.OK {
			r.Text = "build failed: " + res.FailedStep
			return r
		}
		snap = next
		priorDelta = delta
	}
	st := ctrl.Stats()
	total := st.Executed + st.SkippedPrior + st.SkippedCache
	saved := ratio(float64(st.SkippedPrior+st.SkippedCache), float64(total))
	r.Metrics["step_units_total"] = float64(total)
	r.Metrics["step_units_executed"] = float64(st.Executed)
	r.Metrics["savings_fraction"] = saved
	r.Text = fmt.Sprintf(
		"chain of 3 speculative builds over a 12-target dependency chain:\n"+
			"  step-units total    %d\n  executed            %d\n  skipped (prior)     %d\n  skipped (cache)     %d\n  savings             %.0f%%\n",
		total, st.Executed, st.SkippedPrior, st.SkippedCache, saved*100)
	return r
}

// AblationSpecDepth sweeps the speculation-depth cap: deeper speculation
// improves turnaround until the conflict-probability product starves the
// deep nodes of value.
func AblationSpecDepth(o Options) *Report {
	r := newReport("ablation-depth", "Ablation — speculation depth cap")
	w := workload.Generate(workload.IOSConfig(o.seed(), o.count(400, 1000), 300))
	oracle := strategies.NewOracle(w)
	oracleRes := runCell(w, oracle, 300, true)
	base := oracleRes.Summary().P95

	depths := []int{1, 2, 4, 8, 16}
	var rows [][]string
	prev := math.Inf(1)
	monotone := true
	for _, d := range depths {
		sq := strategies.NewSubmitQueue(w, w.OraclePredictor())
		sq.Engine.MaxSpecDepth = d
		res := runCell(w, sq, 300, true)
		p95 := res.Summary().P95
		norm := ratio(p95, base)
		r.Metrics[fmt.Sprintf("norm_p95_depth%d", d)] = norm
		rows = append(rows, []string{fmt.Sprint(d), fmtF(p95), fmtF(norm)})
		if norm > prev+0.25 {
			monotone = false
		}
		if norm < prev {
			prev = norm
		}
	}
	r.Metrics["roughly_monotone"] = boolF(monotone)
	r.Text = textplot.Table(r.Title, []string{"depth", "P95 (min)", "vs Oracle"}, rows)
	return r
}

// AblationBatching evaluates the §10 "batching independent changes"
// extension across batch sizes: larger batches save builds but risk longer
// turnaround on failure.
func AblationBatching(o Options) *Report {
	r := newReport("ablation-batch", "Extension — batching (§10 future work / Chromium CQ)")
	w := workload.Generate(workload.IOSConfig(o.seed(), o.count(300, 800), 200))
	var rows [][]string
	sizes := []int{1, 2, 4, 8}
	for _, size := range sizes {
		b := &strategies.Batch{BatchSize: size}
		res := runCell(w, b, 100, true)
		s := res.Summary()
		r.Metrics[fmt.Sprintf("p95_batch%d", size)] = s.P95
		r.Metrics[fmt.Sprintf("builds_batch%d", size)] = float64(res.BuildsFinished)
		rows = append(rows, []string{
			fmt.Sprint(size), fmtF(s.P50), fmtF(s.P95),
			fmt.Sprint(res.BuildsFinished), fmt.Sprint(res.Committed),
		})
	}
	r.Text = textplot.Table(r.Title, []string{"batch", "P50", "P95", "builds", "commits"}, rows)
	return r
}

// AblationPreemptionGrace exercises the §10 build-preemption idea in the
// real-time planner: with a grace window, nearly-finished builds survive
// re-planning.
func AblationPreemptionGrace(o Options) *Report {
	r := newReport("ablation-grace", "Extension — build preemption grace (§10)")
	// Real-time micro-scenario driven through the actual planner: changes
	// that all conflict at the target level, with a runner slow enough that
	// re-planning happens while builds run.
	run := func(grace time.Duration) (aborted int) {
		rp := repo.New(map[string]string{
			"a/BUILD": "target a srcs=s.go", "a/s.go": "v1",
		})
		runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
			if clock.Sleep(ctx, clock.Wall, 10*time.Millisecond) != nil { //lint:ignore wallclock builds take real time so re-plans overlap them
				return buildsys.ErrAborted
			}
			return nil
		})
		svc := core.NewService(rp, core.Config{
			Workers: 4, Runner: runner, PreemptionGrace: grace,
		})
		for i := 0; i < 4; i++ {
			c := &change.Change{
				ID: change.ID(fmt.Sprintf("g%d", i)),
				Patch: repo.Patch{Changes: []repo.FileChange{{
					Path: fmt.Sprintf("a/f%d.txt", i), Op: repo.OpCreate, NewContent: "x",
				}}},
				BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
			}
			_ = svc.Submit(c)
		}
		_ = svc.ProcessAll(context.Background())
		return svc.BuildStats().Aborted
	}
	without := run(0)
	with := run(time.Nanosecond) // everything past 1ns counts as "nearly done"
	r.Metrics["aborted_without_grace"] = float64(without)
	r.Metrics["aborted_with_grace"] = float64(with)
	r.Text = fmt.Sprintf("aborted builds without grace: %d, with grace: %d (grace keeps nearly-done builds)\n",
		without, with)
	return r
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// AblationReordering evaluates the §10 change-reordering extension: small
// changes may commit ahead of long-running conflicting predecessors. The
// benefit concentrates on turnaround under heavy-tailed build times; the
// cost is commit order deviating from submission order.
func AblationReordering(o Options) *Report {
	r := newReport("ablation-reorder", "Extension — change reordering (§10)")
	cfg := workload.IOSConfig(o.seed(), o.count(400, 1000), 250)
	cfg.DurSigma = 0.9 // heavy-tailed build times make reordering matter
	w := workload.Generate(cfg)

	base := strategies.NewSubmitQueue(w, w.OraclePredictor())
	resBase := runCell(w, base, 150, true)

	re := strategies.NewSubmitQueue(w, w.OraclePredictor())
	re.ReorderSmall = true
	resRe := runCell(w, re, 150, true)

	r.Metrics["p50_base"] = metrics.Percentile(resBase.TurnaroundCommittedMin, 50)
	r.Metrics["p50_reorder"] = metrics.Percentile(resRe.TurnaroundCommittedMin, 50)
	r.Metrics["p95_base"] = metrics.Percentile(resBase.TurnaroundCommittedMin, 95)
	r.Metrics["p95_reorder"] = metrics.Percentile(resRe.TurnaroundCommittedMin, 95)
	r.Metrics["green_violations"] = float64(resRe.GreenViolations)
	r.Text = fmt.Sprintf(
		"heavy-tailed builds (sigma 0.9), 250 changes/h, 150 workers:\n"+
			"  P50 turnaround:  in-order %.0f min → reorder %.0f min\n"+
			"  P95 turnaround:  in-order %.0f min → reorder %.0f min\n"+
			"  green violations with reordering: %d (must be 0)\n",
		r.Metrics["p50_base"], r.Metrics["p50_reorder"],
		r.Metrics["p95_base"], r.Metrics["p95_reorder"],
		resRe.GreenViolations)
	return r
}

// AblationBoosting compares logistic regression against gradient-boosted
// stumps (§10: "exploring other ML techniques such as Gradient Boosting") on
// both prediction tasks.
func AblationBoosting(o Options) *Report {
	r := newReport("ablation-boost", "Extension — gradient boosting vs logistic regression (§10)")
	n := o.count(6000, 20000)
	w := workload.Generate(workload.Config{Seed: o.seed(), Count: n, RatePerHour: 300})

	X, y := w.IsolatedTrainingData()
	trX, trY, vaX, vaY := predict.Split(X, y, 0.7, o.seed())
	lr, err := predict.Train(predict.SuccessFeatureNames, trX, trY, predict.TrainConfig{Epochs: 60})
	if err != nil {
		r.Text = err.Error()
		return r
	}
	gb, err := predict.TrainBoost(predict.SuccessFeatureNames, trX, trY, predict.BoostConfig{Rounds: 120})
	if err != nil {
		r.Text = err.Error()
		return r
	}
	lrAcc := predict.Evaluate(lr, vaX, vaY).Accuracy
	gbAcc := predict.EvaluateBoost(gb, vaX, vaY).Accuracy
	lrAUC := predict.AUC(lr.Predictions(vaX), vaY)
	gbAUC := predict.AUC(gb.Predictions(vaX), vaY)
	r.Metrics["success_lr_accuracy"] = lrAcc
	r.Metrics["success_gb_accuracy"] = gbAcc
	r.Metrics["success_lr_auc"] = lrAUC
	r.Metrics["success_gb_auc"] = gbAUC

	cX, cy := w.ConflictTrainingData(o.seed())
	ctrX, ctrY, cvaX, cvaY := predict.Split(cX, cy, 0.7, o.seed())
	clr, err := predict.Train(predict.ConflictFeatureNames, ctrX, ctrY, predict.TrainConfig{Epochs: 40})
	if err != nil {
		r.Text = err.Error()
		return r
	}
	cgb, err := predict.TrainBoost(predict.ConflictFeatureNames, ctrX, ctrY, predict.BoostConfig{Rounds: 80})
	if err != nil {
		r.Text = err.Error()
		return r
	}
	r.Metrics["conflict_lr_auc"] = predict.AUC(clr.Predictions(cvaX), cvaY)
	r.Metrics["conflict_gb_auc"] = predict.AUC(cgb.Predictions(cvaX), cvaY)

	r.Text = fmt.Sprintf(
		"success model:  LR acc=%.3f auc=%.3f | GB acc=%.3f auc=%.3f (%d stumps)\n"+
			"conflict model: LR auc=%.3f | GB auc=%.3f\n"+
			"the generative ground truth is logistic, so LR is near-Bayes here;\n"+
			"boosting matches it and would win on threshold-shaped signals (see predict tests)\n",
		lrAcc, lrAUC, gbAcc, gbAUC, len(gb.Stumps),
		r.Metrics["conflict_lr_auc"], r.Metrics["conflict_gb_auc"])
	return r
}

// AblationReliability measures the reliability layer (DESIGN.md §4g) under
// an unreliable build fleet: every step of an otherwise-passing build
// suffers a deterministic injected transient with 5% probability. In-place
// step retries absorb most transients and a verification re-run against the
// same snapshot catches the rest, so no innocent change is rejected that the
// fault-free run accepts, master stays green, and turnaround stays close to
// the fault-free run.
func AblationReliability(o Options) *Report {
	r := newReport("ablation-reliability", "Ablation — retry/quarantine under an unreliable build fleet (§4g)")
	const rate = 0.05
	w := workload.Generate(workload.Config{
		Seed: o.seed(), Count: o.count(300, 600), RatePerHour: 250,
	})

	cell := func(flakeRate float64) *sim.Result {
		s := strategies.NewSubmitQueue(w, w.OraclePredictor())
		return sim.Run(w, s, sim.Config{
			Workers: 150, UseAnalyzer: true,
			FlakePerStepRate: flakeRate, FlakeSeed: o.seed() + 99,
		})
	}

	clean := cell(0)
	retry := cell(rate)

	p50Clean := metrics.Percentile(clean.TurnaroundCommittedMin, 50)
	p50Retry := metrics.Percentile(retry.TurnaroundCommittedMin, 50)
	r.Metrics["flake_per_step_rate"] = rate
	r.Metrics["false_rejections_fault_free"] = float64(clean.FalseRejections)
	r.Metrics["false_rejections_retry"] = float64(retry.FalseRejections)
	r.Metrics["flakes_injected"] = float64(retry.FlakesInjected)
	r.Metrics["step_retries"] = float64(retry.StepRetries)
	r.Metrics["flaky_verifications"] = float64(retry.FlakyVerifications)
	r.Metrics["green_violations"] = float64(clean.GreenViolations + retry.GreenViolations)
	r.Metrics["p50_fault_free"] = p50Clean
	r.Metrics["p50_retry"] = p50Retry
	r.Metrics["p50_ratio"] = ratio(p50Retry, p50Clean)
	r.Metrics["committed_fault_free"] = float64(clean.Committed)
	r.Metrics["committed_retry"] = float64(retry.Committed)
	r.Text = fmt.Sprintf(
		"%d changes, 250/h, 150 workers, %.0f%% injected transient rate per step:\n"+
			"  fault-free:         %d false rejections, %d committed\n"+
			"  retry+verification: %d false rejections (%d flakes injected; %d step retries,\n"+
			"                      %d verification re-runs), %d committed\n"+
			"  P50 turnaround:     fault-free %.0f min → with faults+retry %.0f min (%.2fx)\n"+
			"  green violations across both cells: %.0f (must be 0)\n",
		len(w.Changes), rate*100,
		clean.FalseRejections, clean.Committed,
		retry.FalseRejections, retry.FlakesInjected, retry.StepRetries,
		retry.FlakyVerifications, retry.Committed,
		p50Clean, p50Retry, r.Metrics["p50_ratio"],
		r.Metrics["green_violations"])
	return r
}
