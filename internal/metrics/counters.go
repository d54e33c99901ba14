package metrics

import (
	"fmt"
	"path"
	"reflect"
	"strings"
	"sync"
	"time"
	"unicode"
)

// Gauge is one named scalar reading, e.g. a cache counter snapshot.
type Gauge struct {
	Name  string
	Value float64
}

// Gauges is an ordered list of named readings, as Render produces them from
// the layers' Stats structs for the status endpoint, the dashboard and logs.
type Gauges []Gauge

// String renders the gauges as "name=value name=value …" in listed order,
// with integral values printed without a decimal point.
func (gs Gauges) String() string {
	var b strings.Builder
	for i, g := range gs {
		if i > 0 {
			b.WriteByte(' ')
		}
		if g.Value == float64(int64(g.Value)) {
			fmt.Fprintf(&b, "%s=%d", g.Name, int64(g.Value))
		} else {
			fmt.Fprintf(&b, "%s=%.4g", g.Name, g.Value)
		}
	}
	return b.String()
}

var durationType = reflect.TypeOf(time.Duration(0))

// Render turns Stats structs into gauges: one per exported field, in field
// order, so a counter declared in a layer's Stats struct is on every surface
// without further code. A gauge is named <prefix>_<snake_case(field)>; the
// prefix is the struct's type name without its "Stats" suffix, or its
// package's name when that leaves nothing (conflict.Stats → conflict_…,
// api.AdmissionStats → admission_…). Integer and float fields render as they
// are; time.Duration fields render in seconds with an "_s" suffix; a
// struct field renders its own fields under <field>_. Any other field kind
// panics: it is a Stats type the registry does not know how to read.
func Render(stats ...any) Gauges { return Append(nil, stats...) }

// Append is Render appending to g, so a caller with a reused slice renders
// without allocating: the names are worked out once per Stats type.
func Append(g Gauges, stats ...any) Gauges {
	for _, s := range stats {
		v := reflect.ValueOf(s)
		for _, f := range planOf(v.Type()) {
			fv := v.FieldByIndex(f.index)
			x := 0.0
			switch {
			case f.seconds:
				x = time.Duration(fv.Int()).Seconds()
			case fv.CanInt():
				x = float64(fv.Int())
			default:
				x = fv.Float()
			}
			g = append(g, Gauge{Name: f.name, Value: x})
		}
	}
	return g
}

// field is one gauge of a Stats type: its name, where its value lives, and
// whether it is a time.Duration (rendered in seconds).
type field struct {
	name    string
	index   []int
	seconds bool
}

// plans caches each Stats type's fields (reflect.Type → []field).
var plans sync.Map

func planOf(t reflect.Type) []field {
	if p, ok := plans.Load(t); ok {
		return p.([]field)
	}
	prefix := snakeCase(strings.TrimSuffix(t.Name(), "Stats"))
	if prefix == "" {
		prefix = path.Base(t.PkgPath())
	}
	p := appendFields(nil, prefix, t, nil)
	plans.Store(t, p)
	return p
}

func appendFields(fs []field, name string, t reflect.Type, index []int) []field {
	switch k := t.Kind(); {
	case t == durationType:
		return append(fs, field{name: name + "_s", index: index, seconds: true})
	case k >= reflect.Int && k <= reflect.Int64 || k == reflect.Float32 || k == reflect.Float64:
		return append(fs, field{name: name, index: index})
	case k == reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fs = appendFields(fs, name+"_"+snakeCase(f.Name), f.Type, append(index[:len(index):len(index)], i))
			}
		}
		return fs
	}
	panic(fmt.Sprintf("metrics: cannot render %s field %s", t, name))
}

// snakeCase turns a Go identifier into snake case: CrossShardRebuilds →
// cross_shard_rebuilds, and an acronym stays one word (HTTPServer →
// http_server).
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, r := range rs {
		if unicode.IsUpper(r) {
			prevLower := i > 0 && !unicode.IsUpper(rs[i-1])
			nextLower := i > 0 && i+1 < len(rs) && unicode.IsLower(rs[i+1])
			if prevLower || nextLower {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}
