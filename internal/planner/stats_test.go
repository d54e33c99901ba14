package planner

import (
	"reflect"
	"testing"
)

// TestStatsAddAndGaugesCoverEveryField sets every field of a Stats to a
// distinct value and checks that Add carries each one into the sum and that
// Gauges renders each one, so a counter added to the struct cannot silently
// read zero on a sharded service or be missing from /status.
func TestStatsAddAndGaugesCoverEveryField(t *testing.T) {
	var in Stats
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int {
			t.Fatalf("Stats.%s is %s; extend this test for non-int counters", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(int64(100 + i))
	}

	var sum Stats
	sum.Add(in)
	sum.Add(in)
	rendered := map[float64]bool{}
	for _, g := range in.Gauges() {
		rendered[g.Value] = true
	}
	got := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		name, want := v.Type().Field(i).Name, 2*v.Field(i).Int()
		if got.Field(i).Int() != want {
			t.Errorf("Add drops Stats.%s: sum = %d, want %d", name, got.Field(i).Int(), want)
		}
		if !rendered[float64(v.Field(i).Int())] {
			t.Errorf("Gauges omits Stats.%s", name)
		}
	}
}
