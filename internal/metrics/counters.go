package metrics

import (
	"fmt"
	"path"
	"reflect"
	"sort"
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
// are; time.Duration fields render in seconds with an "_s" suffix; a map
// field renders one gauge per key, sorted by key, named <field>_<key>; a
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
	case v.Kind() == reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
		for _, k := range keys {
			g = appendGauges(g, name+"_"+keyName(k), v.MapIndex(k))
		}
		return g
	}
	panic(fmt.Sprintf("metrics: cannot render %s field %s", v.Type(), name))
}

// Sum returns the field-wise sum of two values of one Stats struct type, the
// way Render reads them: numeric and duration fields add, map fields merge
// key by key and struct fields sum recursively. Neither argument is
// modified. The shard runtime sums its engines' planner counters with it.
func Sum[T any](a, b T) T {
	var out T
	sumInto(reflect.ValueOf(&out).Elem(), reflect.ValueOf(a), reflect.ValueOf(b))
	return out
}

func sumInto(dst, a, b reflect.Value) {
	switch {
	case a.CanInt():
		dst.SetInt(a.Int() + b.Int())
	case a.CanFloat():
		dst.SetFloat(a.Float() + b.Float())
	case a.Kind() == reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() {
				sumInto(dst.Field(i), a.Field(i), b.Field(i))
			}
		}
	case a.Kind() == reflect.Map:
		m := reflect.MakeMapWithSize(a.Type(), a.Len()+b.Len())
		for _, src := range []reflect.Value{a, b} {
			for it := src.MapRange(); it.Next(); {
				sum := reflect.New(a.Type().Elem()).Elem()
				if cur := m.MapIndex(it.Key()); cur.IsValid() {
					sumInto(sum, cur, it.Value())
				} else {
					sum.Set(it.Value())
				}
				m.SetMapIndex(it.Key(), sum)
			}
		}
		dst.Set(m)
	default:
		panic(fmt.Sprintf("metrics: cannot sum a %s field", a.Type()))
	}
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

// keyName renders a map key as a name segment: its printed form, lower case,
// with anything but letters and digits turned into '_' (unit-test →
// unit_test).
func keyName(k reflect.Value) string {
	return strings.Map(func(r rune) rune {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return unicode.ToLower(r)
		}
		return '_'
	}, fmt.Sprint(k.Interface()))
}

// keyLess orders map keys by value: integers numerically, everything else by
// its printed form.
func keyLess(a, b reflect.Value) bool {
	if a.CanInt() {
		return a.Int() < b.Int()
	}
	return fmt.Sprint(a.Interface()) < fmt.Sprint(b.Interface())
}
