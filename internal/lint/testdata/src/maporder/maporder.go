// Package maporder exercises the maporder analyzer: order-sensitive
// accumulation inside a map range is a finding unless the result is sorted;
// order-insensitive sinks (maps, sets, loop-locals) are not.
package maporder

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
)

// BadAppend collects keys in random order and never sorts them.
func BadAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want maporder
	}
	return out
}

// GoodSortedAfter is the collect-then-sort idiom.
func GoodSortedAfter(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BadBuilder streams keys into a builder in random order.
func BadBuilder(m map[string]int) string {
	var sb strings.Builder
	for k := range m {
		sb.WriteString(k) // want maporder
	}
	return sb.String()
}

// BadHash feeds a digest in random order — the Algorithm 1 failure shape.
func BadHash(m map[string]string) []byte {
	h := sha256.New()
	for k, v := range m {
		fmt.Fprintf(h, "%s=%s", k, v) // want maporder
	}
	return h.Sum(nil)
}

// BadConcat builds a string in random order.
func BadConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want maporder
	}
	return s
}

// GoodSetBuild writes into another map: order-insensitive.
func GoodSetBuild(m map[string]int) map[string]bool {
	out := map[string]bool{}
	for k := range m {
		out[k] = true
	}
	return out
}

// GoodLoopLocal appends to a slice scoped to one iteration.
func GoodLoopLocal(m map[string]int) int {
	n := 0
	for _, v := range m {
		local := []int{}
		local = append(local, v)
		n += local[0]
	}
	return n
}

// worklist accumulates through a method, the shape that hid the simulator's
// map-order commit sequence from the literal-append check.
type worklist struct {
	items []int
	seen  map[int]bool
}

func (w *worklist) push(i int) {
	if !w.seen[i] {
		w.seen[i] = true
		w.items = append(w.items, i)
	}
}

// mark only writes a set: order-insensitive, so calling it is fine.
func (w *worklist) mark(i int) { w.seen[i] = true }

// BadMethodSink appends to a receiver field one call away.
func (w *worklist) BadMethodSink(m map[int]bool) {
	for k := range m {
		w.push(k) // want maporder
	}
}

// GoodMethodSinkSorted restores the order after collecting through the method.
func (w *worklist) GoodMethodSinkSorted(m map[int]bool) {
	for k := range m {
		w.push(k)
	}
	sort.Ints(w.items)
}

// GoodSetMethod calls a method that appends to nothing.
func (w *worklist) GoodSetMethod(m map[int]bool) {
	for k := range m {
		w.mark(k)
	}
}

var registry []string

func register(name string) { registry = append(registry, name) }

// BadPackageSink appends to a package-level slice one call away.
func BadPackageSink(m map[string]int) {
	for k := range m {
		register(k) // want maporder
	}
}

// GoodLocalHelper calls a function that appends only to its own local.
func GoodLocalHelper(m map[string]int) int {
	n := 0
	for k := range m {
		n += len(doubled(k))
	}
	return n
}

func doubled(s string) []string {
	var out []string
	out = append(out, s, s)
	return out
}
