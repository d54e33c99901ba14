package experiments

import (
	"fmt"
	"time"

	"mastergreen/internal/metrics"
	"mastergreen/internal/strategies"
	"mastergreen/internal/textplot"
	"mastergreen/internal/workload"
)

// evalWorkload builds the evaluation change stream for a rate, mirroring
// §8.1: the paper replays recorded iOS changes at 100–500 changes/hour.
func evalWorkload(o Options, rate float64) *workload.Workload {
	n := o.count(500, 1500)
	return workload.Generate(workload.IOSConfig(o.seed()+int64(rate), n, rate))
}

// Fig10 reproduces Figure 10: the CDF of Oracle turnaround time for 100–500
// changes/hour with abundant workers (the paper uses 2000, i.e. effectively
// no contention), isolating the cost of serializing conflicting changes.
func Fig10(o Options) *Report {
	r := newReport("fig10", "Fig. 10 — CDF of Oracle turnaround (minutes), 2000 workers")
	var series []textplot.Series
	for _, rate := range o.rateGrid() {
		w := evalWorkload(o, rate)
		res := runCell(w, strategies.NewOracle(w), 2000, true)
		cdf := metrics.NewCDF(res.TurnaroundCommittedMin)
		var xs, ys []float64
		for m := 0.0; m <= 120; m += 5 {
			xs = append(xs, m)
			ys = append(ys, cdf.At(m))
		}
		series = append(series, textplot.Series{Name: fmt.Sprintf("%.0f/h", rate), X: xs, Y: ys})
		s := res.Summary()
		r.Metrics[fmt.Sprintf("p50_rate%.0f", rate)] = s.P50
		r.Metrics[fmt.Sprintf("p95_rate%.0f", rate)] = s.P95
	}
	r.Text = textplot.LinePlot(r.Title, 60, 12, series...)
	return r
}

// Fig11 reproduces Figure 11: P50/P95/P99 turnaround normalized against
// Oracle, for SubmitQueue, Speculate-all, and Optimistic, across the
// {changes/hour} × {workers} grid.
func Fig11(o Options) *Report {
	r := newReport("fig11", "Fig. 11 — turnaround normalized against Oracle")
	trained, _, err := TrainPredictor(o.seed(), o.count(4000, 12000))
	if err != nil {
		r.Text = "train failed: " + err.Error()
		return r
	}
	rates := o.rateGrid()
	workers := o.workerGrid()

	type cellKey struct {
		strat   string
		rate    float64
		workers int
		pct     string
	}
	cells := map[cellKey]float64{}

	// Per (rate, workers): the Oracle run, then the strategies compared to it.
	names := []string{"Oracle", "SubmitQueue", "Speculate-all", "Optimistic"}
	var grid []gridCell
	for _, rate := range rates {
		w := evalWorkload(o, rate)
		for _, wk := range workers {
			for _, mk := range gridStrategies(w, trained, names...) {
				grid = append(grid, gridCell{w, mk, wk, true})
			}
		}
	}
	results := runCells(grid)
	for _, rate := range rates {
		for _, wk := range workers {
			oracle := results[0]
			for i, name := range names[1:] {
				for _, pc := range pcts {
					cells[cellKey{name, rate, wk, pc.name}] =
						ratio(pctOf(results[1+i], pc.p), pctOf(oracle, pc.p))
				}
			}
			results = results[len(names):]
		}
	}

	var text string
	for _, strat := range names[1:] {
		for _, pc := range pcts {
			rows := make([][]float64, 0, len(rates))
			rowLabels := make([]string, 0, len(rates))
			colLabels := make([]string, 0, len(workers))
			for _, wk := range workers {
				colLabels = append(colLabels, fmt.Sprintf("%dw", wk))
			}
			// Paper's heatmaps list the highest rate on top.
			for i := len(rates) - 1; i >= 0; i-- {
				rate := rates[i]
				rowLabels = append(rowLabels, fmt.Sprintf("%.0f/h", rate))
				row := make([]float64, 0, len(workers))
				for _, wk := range workers {
					v := cells[cellKey{strat, rate, wk, pc.name}]
					row = append(row, v)
					r.Metrics[fmt.Sprintf("%s/%s/rate%.0f/w%d", strat, pc.name, rate, wk)] = v
				}
				rows = append(rows, row)
			}
			text += textplot.Heatmap(
				fmt.Sprintf("%s %s turnaround / Oracle", strat, pc.name),
				rowLabels, colLabels, rows) + "\n"
		}
	}
	r.Text = text
	return r
}

// Fig12 reproduces Figure 12: average throughput normalized against Oracle
// at 300/400/500 changes per hour as workers scale.
func Fig12(o Options) *Report {
	r := newReport("fig12", "Fig. 12 — average throughput normalized against Oracle")
	trained, _, err := TrainPredictor(o.seed(), o.count(4000, 12000))
	if err != nil {
		r.Text = "train failed: " + err.Error()
		return r
	}
	rates := []float64{300, 400, 500}
	if o.Quick {
		rates = []float64{300, 500}
	}
	workers := o.workerGrid()

	// Per (rate, workers): the strategies, then the Oracle run they are
	// normalized against.
	names := []string{"SubmitQueue", "Speculate-all", "Optimistic", "Single-Queue", "Oracle"}
	var grid []gridCell
	for _, rate := range rates {
		w := evalWorkload(o, rate)
		for _, wk := range workers {
			for _, mk := range gridStrategies(w, trained, names...) {
				grid = append(grid, gridCell{w, mk, wk, true})
			}
		}
	}
	results := runCells(grid)

	var text string
	for _, rate := range rates {
		groups := []textplot.BarGroup{}
		values := map[string][]float64{}
		cats := make([]string, 0, len(workers))
		for _, wk := range workers {
			cats = append(cats, fmt.Sprintf("%dw", wk))
			oracle := results[len(names)-1]
			values["Oracle"] = append(values["Oracle"], 1.0)
			for i, name := range names[:len(names)-1] {
				v := ratio(results[i].ThroughputPerHour, oracle.ThroughputPerHour)
				values[name] = append(values[name], v)
				r.Metrics[fmt.Sprintf("%s/rate%.0f/w%d", name, rate, wk)] = v
			}
			results = results[len(names):]
		}
		for _, n := range names {
			groups = append(groups, textplot.BarGroup{Name: n, Values: values[n]})
		}
		text += textplot.Bars(fmt.Sprintf("throughput / Oracle @ %.0f changes/h", rate),
			cats, 30, groups...) + "\n"
	}
	r.Text = text
	return r
}

// Fig13 reproduces Figure 13: the P95 turnaround improvement from enabling
// the conflict analyzer, per approach, at 300–500 changes/hour.
func Fig13(o Options) *Report {
	r := newReport("fig13", "Fig. 13 — P95 turnaround improvement from the conflict analyzer")
	trained, _, err := TrainPredictor(o.seed(), o.count(4000, 12000))
	if err != nil {
		r.Text = "train failed: " + err.Error()
		return r
	}
	rates := []float64{300, 400, 500}
	workers := o.workerGrid()
	if o.Quick {
		rates = []float64{300, 500}
		// The analyzer-off cells at large worker counts are by far the most
		// expensive simulations in the whole harness (every pair conflicts,
		// so build identities are long chains); the improvement trend is
		// already visible at two worker points.
		workers = []int{100, 300}
	}

	// Per (rate, workers, strategy): analyzer on, then analyzer off.
	names := []string{"Oracle", "SubmitQueue", "Speculate-all", "Optimistic", "Single-Queue"}
	var grid []gridCell
	for _, rate := range rates {
		w := evalWorkload(o, rate)
		for _, wk := range workers {
			for _, mk := range gridStrategies(w, trained, names...) {
				grid = append(grid, gridCell{w, mk, wk, true}, gridCell{w, mk, wk, false})
			}
		}
	}
	results := runCells(grid)

	var text string
	for _, rate := range rates {
		cats := make([]string, 0, len(workers))
		values := map[string][]float64{}
		for _, wk := range workers {
			cats = append(cats, fmt.Sprintf("%dw", wk))
			for _, name := range names {
				with, without := results[0], results[1]
				results = results[2:]
				impr := 0.0
				if p := pctOf(without, 95); p > 0 {
					impr = (p - pctOf(with, 95)) / p
				}
				values[name] = append(values[name], impr)
				r.Metrics[fmt.Sprintf("%s/rate%.0f/w%d", name, rate, wk)] = impr
			}
		}
		var groups []textplot.BarGroup
		for _, n := range names {
			groups = append(groups, textplot.BarGroup{Name: n, Values: values[n]})
		}
		text += textplot.Bars(fmt.Sprintf("P95 improvement @ %.0f changes/h", rate),
			cats, 30, groups...) + "\n"
	}
	r.Text = text
	return r
}

// SingleQueueBacklog reproduces the §2.2 back-of-envelope: a single queue at
// 1000 changes/day with 30-minute builds pushes the last enqueued change's
// turnaround past 20 days. We verify the analytic claim and simulate a
// scaled-down version.
func SingleQueueBacklog(o Options) *Report {
	r := newReport("t2", "§2.2 — single-queue turnaround blow-up")
	// Analytic: day one enqueues 1000 changes; serial processing does 48/day.
	const perDay = 1000.0
	const buildMin = 30.0
	processedPerDay := 24 * 60 / buildMin
	lastTurnaroundDays := perDay / processedPerDay
	r.Metrics["analytic_last_turnaround_days"] = lastTurnaroundDays

	// Simulated (scaled 1/10, fully conflicting so the queue is truly single):
	n := o.count(60, 100)
	w := workload.Generate(workload.Config{
		Seed: o.seed(), Count: n, RatePerHour: 1000.0 / 24,
		Components: 1, ComponentsPerChange: 1,
		ConflictWindow: 1000 * time.Hour,
		DurMedianMin:   30, DurSigma: 0.001, DurMinMin: 29, DurMaxMin: 31,
	})
	res := runCell(w, strategies.SingleQueue{}, 50, true)
	last := metrics.Percentile(res.TurnaroundAllMin, 100) / 60 / 24
	r.Metrics["sim_last_turnaround_days"] = last
	r.Text = fmt.Sprintf(
		"analytic: 1000 changes/day × 30 min serial → last change waits ≈ %.1f days (paper: 'over 20 days')\n"+
			"simulated (%d changes at same rate): last turnaround = %.2f days and growing linearly with backlog\n",
		lastTurnaroundDays, n, last)
	return r
}
