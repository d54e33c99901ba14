package buildgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"mastergreen/internal/repo"
)

// hashWorkers bounds the goroutine fan-out of the parallel bottom-up hash
// traversal. Overridden to 1 in tests to verify serial/parallel agreement.
var hashWorkers = runtime.GOMAXPROCS(0)

// missingSrcMarker feeds the hash of a declared-but-absent source file, so
// creating or deleting the file changes the owning target's hash.
const missingSrcMarker = "\x00<missing>\x00"

func sortUnique(s *[]string) {
	sort.Strings(*s)
	out := (*s)[:0]
	for i, v := range *s {
		if i == 0 || v != (*s)[i-1] {
			out = append(out, v)
		}
	}
	*s = out
}

// hashBufs recycles hashTarget's input buffers across hashDirty calls.
var hashBufs = sync.Pool{New: func() any { return new([]byte) }}

// hashTarget computes the Algorithm 1 hash of one target: a digest over the
// target's label, its sources' contents, and — recursively — the hashes of
// its direct dependencies (already computed, supplied via depHash). The
// digest's input is assembled in *buf, which is kept for the next call, so
// with a warmed buffer the hex string is the only allocation.
func hashTarget(buf *[]byte, t *Target, snap repo.Snapshot, depHash func(string) string) string {
	b := append((*buf)[:0], t.Name...)
	for _, src := range t.Srcs {
		content, ok := snap.Read(src)
		if !ok {
			content = missingSrcMarker
		}
		b = append(append(append(b, "\x00s"...), src...), 0)
		b = append(strconv.AppendInt(b, int64(len(content)), 10), 0)
		b = append(b, content...)
	}
	for _, d := range t.Deps {
		b = append(append(append(b, "\x00d"...), d...), 0)
		b = append(b, depHash(d)...)
	}
	*buf = b
	sum := sha256.Sum256(b)
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
}

// topoCheck validates that every dep resolves and the DAG is acyclic,
// returning targets in topological order (dependencies first).
func topoCheck(targets map[string]*Target) ([]string, error) {
	indeg := make(map[string]int, len(targets))
	for name, t := range targets {
		if _, ok := indeg[name]; !ok {
			indeg[name] = 0
		}
		for _, d := range t.Deps {
			if _, ok := targets[d]; !ok {
				return nil, fmt.Errorf("buildgraph: target %s depends on missing target %s", name, d)
			}
		}
		indeg[name] = len(t.Deps)
	}
	queue := make([]string, 0, len(targets))
	for name, d := range indeg {
		if d == 0 {
			queue = append(queue, name)
		}
	}
	sort.Strings(queue) // deterministic topological order regardless of map iteration
	rdeps := reverseEdges(targets)
	order := make([]string, 0, len(targets))
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, n)
		for _, m := range rdeps[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if len(order) != len(targets) {
		var stuck []string
		for name, d := range indeg {
			if d > 0 {
				stuck = append(stuck, name)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("buildgraph: dependency cycle involving %v", stuck)
	}
	return order, nil
}

func reverseEdges(targets map[string]*Target) map[string][]string {
	rdeps := make(map[string][]string, len(targets))
	for name, t := range targets {
		for _, d := range t.Deps {
			rdeps[d] = append(rdeps[d], name)
		}
	}
	for _, rs := range rdeps {
		sort.Strings(rs)
	}
	return rdeps
}

// overlayFlattenDiv bounds a hash overlay to 1/overlayFlattenDiv of the
// target count. A graph whose overlay would grow past that gets a flat table
// of its own instead, so merging the base's overlay into each new graph stays
// a small fraction of what copying every hash would cost, and a lookup stays
// two map probes.
const overlayFlattenDiv = 8

// computeHashes sets g's hashes. Targets in dirty are (re)hashed with a
// parallel bottom-up traversal; every other target keeps its hash from base
// (which must contain it). With share set, g has base's structure, and it
// shares base's flat table and records only what differs from it, as long as
// that overlay stays within its bound. The graph must already be
// cycle-checked: the traversal terminates because every dirty target's
// dirty-dependency count reaches zero exactly once.
func computeHashes(g *Graph, snap repo.Snapshot, base *Graph, dirty map[string]bool, share bool) {
	fresh := hashDirty(g, snap, base, dirty)
	if share && len(fresh) == 0 {
		g.flat, g.over = base.flat, base.over
		return
	}
	if share && (len(base.over)+len(fresh))*overlayFlattenDiv <= len(g.targets) {
		g.flat = base.flat
		g.over = make(map[string]string, len(base.over)+len(fresh))
		for name, h := range base.over {
			g.over[name] = h
		}
		for name, h := range fresh {
			if g.flat.m[name] == h {
				delete(g.over, name) // back to the table's value
			} else {
				g.over[name] = h
			}
		}
		return
	}
	if len(fresh) == len(g.targets) { // cold: everything was hashed
		g.flat = &hashTable{m: fresh}
		return
	}
	flat := make(map[string]string, len(g.targets))
	for name := range g.targets {
		if h, ok := fresh[name]; ok {
			flat[name] = h
		} else {
			flat[name], _ = base.Hash(name)
		}
	}
	g.flat = &hashTable{m: flat}
}

// hashDirty returns the Algorithm 1 hash of every target in dirty; clean
// dependencies are read from base.
func hashDirty(g *Graph, snap repo.Snapshot, base *Graph, dirty map[string]bool) map[string]string {
	if len(dirty) == 0 {
		return nil
	}
	fresh := make(map[string]string, len(dirty))
	var mu sync.Mutex // guards fresh and remaining during the fan-out
	// remaining[t] = number of dirty direct deps not yet hashed; a dirty
	// target is ready once all its dirty deps are done (clean deps are
	// memoized in base).
	remaining := make(map[string]int, len(dirty))
	ready := make([]string, 0, len(dirty))
	for name := range dirty {
		n := 0
		for _, d := range g.targets[name].Deps {
			if dirty[d] {
				n++
			}
		}
		remaining[name] = n
		if n == 0 {
			ready = append(ready, name)
		}
	}
	sort.Strings(ready) // feed workers in a deterministic order
	workers := hashWorkers
	if workers > len(dirty) {
		workers = len(dirty)
	}
	if workers < 1 {
		workers = 1
	}
	work := make(chan string, len(dirty))
	for _, name := range ready {
		//lint:ignore locksend work is buffered to len(dirty) and receives exactly len(dirty) sends total, so seeding cannot block even under a caller's lock
		work <- name
	}
	done := 0
	var wg sync.WaitGroup
	depHash := func(d string) string {
		if !dirty[d] {
			h, _ := base.Hash(d)
			return h
		}
		mu.Lock()
		h := fresh[d]
		mu.Unlock()
		return h
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := hashBufs.Get().(*[]byte)
			defer hashBufs.Put(buf)
			for name := range work {
				h := hashTarget(buf, g.targets[name], snap, depHash)
				// Collect newly-ready targets under the lock, but send them
				// after releasing it: work is buffered to len(dirty) so the
				// sends cannot block, and no goroutine ever sleeps on the
				// channel while holding mu.
				mu.Lock()
				fresh[name] = h
				var unlocked []string
				for _, m := range g.rdeps[name] {
					if dirty[m] {
						remaining[m]--
						if remaining[m] == 0 {
							unlocked = append(unlocked, m)
						}
					}
				}
				done++
				last := done == len(dirty)
				mu.Unlock()
				for _, m := range unlocked {
					work <- m
				}
				if last {
					close(work)
				}
			}
		}()
	}
	//lint:ignore locksend bounded wait: workers only drain the buffered work channel and take no caller-visible locks, so this terminates even when Analyze holds cacheMu
	wg.Wait()
	return fresh
}
