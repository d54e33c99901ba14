package buildgraph

import (
	"sync"

	"mastergreen/internal/repo"
)

// The analyze cache memoizes Analyze results by snapshot content ID. A hit
// is O(1); a miss is analyzed incrementally against the most recently used
// entry's snapshot, so a small patch costs O(changed files + affected
// targets). Entries hold only references (snapshots share file storage), so
// the cache is cheap; it is bounded to keep long-running services flat.
const analyzeCacheLimit = 128

var (
	cacheMu      sync.Mutex
	cacheEntries = map[string]*cacheEntry{}
	cacheOrder   []string    // insertion order, for eviction
	cacheMRU     *cacheEntry // incremental base for the next miss
)

type cacheEntry struct {
	id    string
	snap  repo.Snapshot
	graph *Graph
}

// Analyze parses the snapshot's BUILD files into a target DAG and computes
// every target's Algorithm 1 hash. It fails on BUILD syntax errors, missing
// dependencies, and dependency cycles. Results are cached by snapshot
// content ID and computed incrementally from the previous analysis where
// possible; the returned Graph is immutable and may be shared.
func Analyze(snap repo.Snapshot) (*Graph, error) {
	id := snap.ContentID()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if e, ok := cacheEntries[id]; ok {
		cacheMRU = e
		return e.graph, nil
	}
	var g *Graph
	var err error
	if cacheMRU != nil {
		g, err = analyzeIncremental(snap, cacheMRU.snap, cacheMRU.graph)
	} else {
		g, err = analyzeCold(snap)
	}
	if err != nil {
		return nil, err
	}
	e := &cacheEntry{id: id, snap: snap, graph: g}
	cacheEntries[id] = e
	cacheOrder = append(cacheOrder, id)
	cacheMRU = e
	if len(cacheOrder) > analyzeCacheLimit {
		evict := cacheOrder[0]
		cacheOrder = cacheOrder[1:]
		if old := cacheEntries[evict]; old != nil {
			if cacheMRU == old {
				cacheMRU = e
			}
			delete(cacheEntries, evict)
		}
	}
	return g, nil
}

// resetAnalyzeCache clears the cache; benchmarks use it to measure the cold
// path honestly.
func resetAnalyzeCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	cacheEntries = map[string]*cacheEntry{}
	cacheOrder = nil
	cacheMRU = nil
}

// analyzeCold analyzes a snapshot from scratch: parse every BUILD file,
// validate the DAG, hash every target.
func analyzeCold(snap repo.Snapshot) (*Graph, error) {
	g := &Graph{
		targets: map[string]*Target{},
		byDir:   map[string][]*Target{},
	}
	var parseErr error
	snap.Range(func(path, content string) bool {
		dir, ok := buildFileDir(path)
		if !ok {
			return true
		}
		ts, err := parseBuildFile(dir, content)
		if err != nil {
			parseErr = err
			return false
		}
		g.byDir[dir] = ts
		return true
	})
	if parseErr != nil {
		return nil, parseErr
	}
	return finishGraph(g, snap, nil, nil)
}

// analyzeIncremental analyzes snap against a previously analyzed base:
// re-parse only changed BUILD files, reuse the base's parsed targets for
// unchanged directories, and re-hash only targets whose inputs (definition,
// source content, or a transitive dependency's hash) changed.
func analyzeIncremental(snap, baseSnap repo.Snapshot, base *Graph) (*Graph, error) {
	changed := changedPaths(baseSnap, snap)
	if len(changed) == 0 {
		return base, nil
	}
	changedDirs := map[string]bool{}
	for _, p := range changed {
		if dir, ok := buildFileDir(p); ok {
			changedDirs[dir] = true
		}
	}
	// Fast path: no BUILD file changed, so the target DAG is structurally
	// identical to the base. Share every index, and the base's hash table
	// too, and re-hash only the targets owning changed sources plus their
	// reverse-dependency closure — total cost O(changed files + affected
	// targets + the bounded hash overlay), not O(repo).
	if len(changedDirs) == 0 {
		g := &Graph{
			targets: base.targets,
			byDir:   base.byDir,
			bySrc:   base.bySrc,
			rdeps:   base.rdeps,
		}
		dirty := map[string]bool{}
		stack := []string{}
		for _, p := range changed {
			for _, name := range base.bySrc[p] {
				if !dirty[name] {
					dirty[name] = true
					stack = append(stack, name)
				}
			}
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range g.rdeps[n] {
				if !dirty[m] {
					dirty[m] = true
					stack = append(stack, m)
				}
			}
		}
		computeHashes(g, snap, base, dirty, true)
		return g, nil
	}
	g := &Graph{
		targets: map[string]*Target{},
		byDir:   make(map[string][]*Target, len(base.byDir)),
	}
	// Unchanged directories reuse the base's immutable targets.
	for dir, ts := range base.byDir {
		if !changedDirs[dir] {
			g.byDir[dir] = ts
		}
	}
	for dir := range changedDirs {
		path := "BUILD"
		if dir != "" {
			path = dir + "/BUILD"
		}
		content, ok := snap.Read(path)
		if !ok {
			continue // BUILD deleted: its targets vanish
		}
		ts, err := parseBuildFile(dir, content)
		if err != nil {
			return nil, err
		}
		g.byDir[dir] = ts
	}
	// Seed the dirty set: every target in a changed directory, plus every
	// target owning a changed source file. Reverse-dependency propagation
	// happens in finishGraph once edges exist.
	seed := map[string]bool{}
	for dir := range changedDirs {
		for _, t := range g.byDir[dir] {
			seed[t.Name] = true
		}
	}
	return finishGraph(g, snap, base, func(g *Graph) map[string]bool {
		for _, p := range changed {
			for _, name := range g.bySrc[p] {
				seed[name] = true
			}
		}
		return seed
	})
}

// finishGraph indexes, validates, and hashes a graph whose byDir map is
// populated. seedFn, when non-nil, returns the dirty seed once indexes
// exist; nil means everything is dirty (cold analysis).
func finishGraph(g *Graph, snap repo.Snapshot, base *Graph, seedFn func(*Graph) map[string]bool) (*Graph, error) {
	for _, ts := range g.byDir {
		for _, t := range ts {
			g.targets[t.Name] = t
		}
	}
	g.bySrc = map[string][]string{}
	for name, t := range g.targets {
		for _, s := range t.Srcs {
			g.bySrc[s] = append(g.bySrc[s], name)
		}
	}
	for s, names := range g.bySrc {
		sortUnique(&names)
		g.bySrc[s] = names
	}
	if _, err := topoCheck(g.targets); err != nil {
		return nil, err
	}
	g.rdeps = reverseEdges(g.targets)

	var dirty map[string]bool
	if seedFn == nil {
		dirty = make(map[string]bool, len(g.targets))
		for name := range g.targets {
			dirty[name] = true
		}
	} else {
		dirty = seedFn(g)
		// A target absent from the base graph has no memoized hash.
		for name := range g.targets {
			if _, ok := base.Hash(name); !ok {
				dirty[name] = true
			}
		}
		// Propagate: anything depending on a dirty target is dirty.
		stack := make([]string, 0, len(dirty))
		for name := range dirty {
			//lint:ignore maporder worklist visit order does not affect the computed dirty set
			stack = append(stack, name)
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range g.rdeps[n] {
				if !dirty[m] {
					dirty[m] = true
					stack = append(stack, m)
				}
			}
		}
	}
	computeHashes(g, snap, base, dirty, false)
	return g, nil
}

// changedPaths returns every path whose content differs between base and
// next (added, modified, or deleted).
func changedPaths(base, next repo.Snapshot) []string {
	return base.ChangedPaths(next)
}
