package main

import (
	"fmt"
	"runtime"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/metrics"
	"mastergreen/internal/planner"
)

// Shared pieces of the three workloads that drive a live core.Service.

// waitBuildsIdle returns once every build the controller started has ended.
// With instant builds this is what makes a harness-stepped loop synchronous:
// each Tick sees the results of all builds the previous Tick started, so the
// decisions of a run do not depend on goroutine scheduling.
//
// BuildStats copies a map per call, so the loop spins on the runner's own
// busy counter and asks the controller only when no step-unit is running.
func waitBuildsIdle(svc *core.Service, runner stepRunner) {
	for {
		if runner.busy.Load() == 0 {
			bs := svc.BuildStats()
			if bs.Completed+bs.Aborted >= bs.Builds {
				return
			}
		}
		runtime.Gosched()
	}
}

// decisionsOf converts the service's outcome log into oracle decisions. The
// commit's mainline position is read from the repository by commit ID, as
// data: the oracle orders commits by it and replays them itself.
func decisionsOf(svc *core.Service, outs []planner.Outcome) []decision {
	ds := make([]decision, 0, len(outs))
	for _, o := range outs {
		d := decision{id: string(o.ID), committed: o.State == change.StateCommitted}
		if d.committed {
			if c, err := svc.Repo().Lookup(o.Commit); err == nil {
				d.seq = c.Seq
			} else {
				d.seq = -1 // the oracle's replay will not match HEAD
			}
		}
		ds = append(ds, d)
	}
	return ds
}

// nominalUnit is what one executed step-unit is accounted at where builds are
// instant: the 40 ms a unit really takes on build_bound. Measured runner time
// of an instant build is microseconds of scheduler noise; the executed units
// are an exact count of the work the artifact cache and minimal build steps
// did not avoid, and pricing them at one rate keeps worker_ms_per_commit
// comparable across the live workloads.
const nominalUnit = bbUnitDelay

// fillLive fills the end-to-end metrics every live workload shares from the
// measured section, the outcomes decided in it and the counter readings at
// its ends. stepped says the harness steps the service and builds are
// instant: the segments then hold equal work and the median segment is
// reported, and worker time is the executed step-units at the nominal price.
// Otherwise (build_bound) a segment's decision count follows the arrival
// schedule, not the system's speed, and the plain totals are reported.
func fillLive(r *result, sec *section, outs []planner.Outcome, a, b counters, stepped bool) {
	committed := float64(committedOf(outs))
	r.e2e["decided_per_s"] = ratio(float64(sec.done()), sec.wall().Seconds())
	r.e2e["cpu_ms_per_decided"] = ratio(ms(sec.cpu()), float64(sec.done()))
	worker := b.build.ExecTime - a.build.ExecTime
	if stepped {
		rate, cpuMs := sec.perSegment()
		r.notes["segment_rates"] = fmt.Sprintf("%.0f", rate)
		r.e2e["decided_per_s"] = metrics.Percentile(rate, 50)
		r.e2e["cpu_ms_per_decided"] = metrics.Percentile(cpuMs, 50)
		worker = time.Duration(b.build.Executed-a.build.Executed) * nominalUnit
	}
	r.e2e["alloc_kb_per_decided"] = ratio(float64(sec.allocBytes())/1024, float64(len(outs)))
	r.e2e["builds_per_commit"] = ratio(float64(b.build.Builds-a.build.Builds), committed)
	r.e2e["worker_ms_per_commit"] = ratio(ms(worker), committed)
}

// fillTurnaround reports the turnaround percentiles over every change
// decided in the measured section.
func fillTurnaround(r *result, turnaroundMs []float64) {
	r.e2e["turnaround_p50_ms"] = metrics.Percentile(turnaroundMs, 50)
	r.e2e["turnaround_p95_ms"] = metrics.Percentile(turnaroundMs, 95)
}

// withTracedPredictor installs the counting predictor on traced runs and
// leaves the service's own default in place otherwise. (A nil
// *countingPredictor stored in the interface field would not be nil to the
// service.)
func withTracedPredictor(p params, cfg core.Config) (*countingPredictor, core.Config) {
	if p.tr == nil {
		return nil, cfg
	}
	pred := newCountingPredictor()
	cfg.Predictor = pred
	return pred, cfg
}
