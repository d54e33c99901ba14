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

// statsRow is one Stats type under test: its gauge prefix, its type, and Sum
// of a value with itself.
type statsRow struct {
	prefix string
	typ    reflect.Type
	double func(any) any
}

func row[T any](prefix string) statsRow {
	return statsRow{prefix, reflect.TypeOf(*new(T)), func(x any) any { return metrics.Sum(x.(T), x.(T)) }}
}

// fill sets every exported leaf of v to a distinct value — *n, counting up —
// and records the gauge name and value each one must render as. A map field
// gets a single entry under key 2; a duration holds *n seconds.
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
	case v.Kind() == reflect.Map:
		key := reflect.New(v.Type().Key()).Elem()
		key.SetInt(2)
		elem := reflect.New(v.Type().Elem()).Elem()
		fill(elem, name+"_"+strings.ReplaceAll(fmt.Sprint(key.Interface()), "-", "_"), n, want)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(key, elem)
	default:
		panic(fmt.Sprintf("fill: extend for %s (%s)", v.Type(), name))
	}
}

// TestRenderAndSumCoverEveryField: for every Stats type the service reads,
// every exported field renders exactly once under <prefix>_<snake_case(field)>
// with its own value, and Sum of two copies doubles every field — so a
// counter added to a struct can neither go missing from /status nor read
// zero on a sharded service.
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

			doubled := metrics.Render(tc.double(in))
			if len(doubled) != len(got) {
				t.Fatalf("Sum renders %d gauges, want %d", len(doubled), len(got))
			}
			for i, g := range doubled {
				if g.Name != got[i].Name || g.Value != 2*got[i].Value {
					t.Errorf("Sum: %s = %v, want %s = %v", g.Name, g.Value, got[i].Name, 2*got[i].Value)
				}
			}
		})
	}
}

// TestRenderNames pins the naming rule on concrete fields: field order, map
// keys in numeric order, durations in seconds, nested lanes, and Sum leaving
// its arguments' maps alone.
func TestRenderNames(t *testing.T) {
	a := arbiter.Stats{Commits: 3, CommitsByShard: map[int]int{10: 1, 2: 1, 0: 1}}
	got := metrics.Render(a).String()
	want := "arbiter_commits=3 arbiter_commit_failures=0 arbiter_cross_shard_checks=0 arbiter_cross_shard_rejects=0 " +
		"arbiter_max_queue_depth=0 arbiter_hotfix_yields=0 " +
		"arbiter_commits_by_shard_0=1 arbiter_commits_by_shard_2=1 arbiter_commits_by_shard_10=1"
	if got != want {
		t.Errorf("Render(arbiter.Stats) =\n%s\nwant\n%s", got, want)
	}
	if sum := metrics.Sum(a, arbiter.Stats{CommitsByShard: map[int]int{2: 4}}); sum.CommitsByShard[2] != 5 || a.CommitsByShard[2] != 1 {
		t.Errorf("Sum CommitsByShard = %v, argument now %v", sum.CommitsByShard, a.CommitsByShard)
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
