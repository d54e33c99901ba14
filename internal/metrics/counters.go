package metrics

import (
	"fmt"
	"path"
	"reflect"
	"strings"
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
func Render(stats ...any) Gauges {
	var g Gauges
	for _, s := range stats {
		v := reflect.ValueOf(s)
		prefix := snakeCase(strings.TrimSuffix(v.Type().Name(), "Stats"))
		if prefix == "" {
			prefix = path.Base(v.Type().PkgPath())
		}
		g = appendGauges(g, prefix, v)
	}
	return g
}

func appendGauges(g Gauges, name string, v reflect.Value) Gauges {
	if v.Type() == durationType {
		return append(g, Gauge{Name: name + "_s", Value: time.Duration(v.Int()).Seconds()})
	}
	switch {
	case v.CanInt():
		return append(g, Gauge{Name: name, Value: float64(v.Int())})
	case v.CanFloat():
		return append(g, Gauge{Name: name, Value: v.Float()})
	case v.Kind() == reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				g = appendGauges(g, name+"_"+snakeCase(f.Name), v.Field(i))
			}
		}
		return g
	}
	panic(fmt.Sprintf("metrics: cannot render %s field %s", v.Type(), name))
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
