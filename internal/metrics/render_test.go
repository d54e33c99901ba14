package metrics_test

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/api"
	"mastergreen/internal/arbiter"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/conflict"
	"mastergreen/internal/events"
	"mastergreen/internal/metrics"
	"mastergreen/internal/planner"
	"mastergreen/internal/reliability"
	"mastergreen/internal/sched"
	"mastergreen/internal/shard"
)

var wordStart = regexp.MustCompile(`([a-z0-9])([A-Z])`)

// statsRow is one Stats type under test: its gauge prefix and its type.
type statsRow struct {
	prefix string
	typ    reflect.Type
}

func row[T any](prefix string) statsRow {
	return statsRow{prefix, reflect.TypeOf(*new(T))}
}

// fill sets every exported leaf of v to a distinct value — *n, counting up —
// and records the gauge name and value each one must render as. A duration
// holds *n seconds.
func fill(v reflect.Value, name string, n *int, want map[string]float64) {
	switch {
	case v.Type() == reflect.TypeOf(time.Duration(0)):
		*n++
		v.SetInt(int64(*n) * int64(time.Second))
		want[name+"_s"] = float64(*n)
	case v.CanInt():
		*n++
		v.SetInt(int64(*n))
		want[name] = float64(*n)
	case v.CanFloat():
		*n++
		v.SetFloat(float64(*n))
		want[name] = float64(*n)
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			field := strings.ToLower(wordStart.ReplaceAllString(v.Type().Field(i).Name, "${1}_${2}"))
			fill(v.Field(i), name+"_"+field, n, want)
		}
	default:
		panic(fmt.Sprintf("fill: extend for %s (%s)", v.Type(), name))
	}
}

// TestRenderAndSumCoverEveryField: for every Stats type the service reads,
// every exported field renders exactly once under <prefix>_<snake_case(field)>
// with its own value, so a counter added to a struct cannot go missing from
// /status. (Its name predates the deletion of the Stats summing helper.)
func TestRenderAndSumCoverEveryField(t *testing.T) {
	for _, tc := range []statsRow{
		row[buildsys.Stats]("buildsys"),
		row[conflict.Stats]("conflict"),
		row[planner.Stats]("planner"),
		row[shard.Stats]("shard"),
		row[arbiter.Stats]("arbiter"),
		row[reliability.Stats]("reliability"),
		row[events.Stats]("events"),
		row[sched.Stats]("sched"),
		row[api.AdmissionStats]("admission"),
	} {
		t.Run(tc.prefix, func(t *testing.T) {
			v := reflect.New(tc.typ).Elem()
			want := map[string]float64{}
			n := 0
			fill(v, tc.prefix, &n, want)
			in := v.Interface()

			got := metrics.Render(in)
			seen := map[string]bool{}
			for _, g := range got {
				if seen[g.Name] {
					t.Errorf("%s rendered twice", g.Name)
				}
				seen[g.Name] = true
				if w, ok := want[g.Name]; !ok {
					t.Errorf("unexpected gauge %s = %v", g.Name, g.Value)
				} else if g.Value != w {
					t.Errorf("%s = %v, want %v", g.Name, g.Value, w)
				}
			}
			for name := range want {
				if !seen[name] {
					t.Errorf("%s not rendered", name)
				}
			}
		})
	}
}

// TestRenderNames pins the naming rule on concrete fields: field order,
// durations in seconds and nested lanes.
func TestRenderNames(t *testing.T) {
	a := arbiter.Stats{Commits: 3, CrossShardRejects: 1}
	got := metrics.Render(a).String()
	want := "arbiter_commits=3 arbiter_commit_failures=0 arbiter_cross_shard_checks=0 arbiter_cross_shard_rejects=1 " +
		"arbiter_max_queue_depth=0"
	if got != want {
		t.Errorf("Render(arbiter.Stats) =\n%s\nwant\n%s", got, want)
	}

	g := metrics.Render(
		buildsys.Stats{UsefulTime: 1500 * time.Millisecond},
		sched.Stats{Hotfix: sched.ClassStats{TurnaroundMeanSec: 2.5}},
		api.AdmissionStats{DrainPerSec: 7},
	)
	values := map[string]float64{}
	for _, kv := range g {
		values[kv.Name] = kv.Value
	}
	for name, v := range map[string]float64{
		"buildsys_useful_time_s":           1.5,
		"sched_hotfix_turnaround_mean_sec": 2.5,
		"sched_bulk_accepted":              0,
		"admission_drain_per_sec":          7,
	} {
		if got, ok := values[name]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, v)
		}
	}
}
