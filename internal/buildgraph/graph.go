// Package buildgraph is the build-system substrate of §5.1: it parses
// BUILD files into a target DAG and computes the recursive Algorithm 1
// target hashes that the conflict analyzer and planner compare. It is the
// system's hot path — the planner re-analyzes snapshots up to three times
// per build start — so analysis is performance-first:
//
//   - Hashing is memoized per target and computed with a parallel bottom-up
//     traversal (goroutine fan-out over ready targets).
//   - Analyze results are cached by snapshot content ID, and a cache miss is
//     analyzed incrementally against the most recent cached snapshot, so
//     re-analyzing an unchanged or lightly-patched snapshot costs
//     O(changed files + affected targets), not O(repo).
//
// The BUILD dialect is one declaration per line:
//
//	target <name> srcs=<file>,... deps=//dir:name,...
//
// where srcs are paths relative to the BUILD file's directory and deps are
// fully-qualified target labels.
package buildgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Target is one build target declared in a BUILD file. Targets are immutable
// after analysis and may be shared between graphs; callers must not mutate
// the slices.
type Target struct {
	// Name is the fully-qualified label, e.g. "//lib:strings".
	Name string
	// Dir is the directory of the declaring BUILD file ("" for the root).
	Dir string
	// Srcs are the target's source files as full repository paths, sorted.
	Srcs []string
	// Deps are the labels of direct dependencies, sorted.
	Deps []string
}

// Graph is the target DAG of one snapshot, with Algorithm 1 hashes. All
// methods are read-only; a Graph is immutable after Analyze returns it and
// safe for concurrent use.
type Graph struct {
	targets map[string]*Target
	// A target's hash is over[name] if present, else flat.m[name]. Graphs
	// analyzed incrementally without a structure change share their base's
	// flat table and carry only the targets whose hash differs from it, so
	// such an analysis costs its dirty targets, not the repo's (hash.go).
	flat  *hashTable
	over  map[string]string
	rdeps map[string][]string  // dep label -> labels depending on it
	byDir map[string][]*Target // BUILD dir -> its targets, in declaration order
	bySrc map[string][]string  // source path -> labels listing it in srcs
}

// hashTable is a flat target -> hash map, immutable once built. It is a
// pointer so Diff can recognize two graphs over the same table by identity
// and compare just their overlays.
type hashTable struct {
	m map[string]string
}

// Len returns the number of targets.
func (g *Graph) Len() int { return len(g.targets) }

// Names returns all target labels in sorted order.
func (g *Graph) Names() []string {
	out := make([]string, 0, len(g.targets))
	for n := range g.targets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Target returns the target with the given label.
func (g *Graph) Target(name string) (*Target, bool) {
	t, ok := g.targets[name]
	return t, ok
}

// Hash returns the Algorithm 1 hash of the target.
func (g *Graph) Hash(name string) (string, bool) {
	if h, ok := g.over[name]; ok {
		return h, true
	}
	h, ok := g.flat.m[name]
	return h, ok
}

// DependencyClosure returns the transitive dependencies of the target,
// including the target itself.
func (g *Graph) DependencyClosure(name string) map[string]bool {
	return g.closure(name, func(n string) []string {
		if t, ok := g.targets[n]; ok {
			return t.Deps
		}
		return nil
	})
}

// Dependents returns the transitive reverse dependencies of the target,
// including the target itself.
func (g *Graph) Dependents(name string) map[string]bool {
	return g.closure(name, func(n string) []string { return g.rdeps[n] })
}

func (g *Graph) closure(name string, next func(string) []string) map[string]bool {
	if _, ok := g.targets[name]; !ok {
		return map[string]bool{}
	}
	seen := map[string]bool{name: true}
	stack := []string{name}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range next(n) {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return seen
}

// Dot renders the target DAG in Graphviz format.
func (g *Graph) Dot() string {
	var sb strings.Builder
	sb.WriteString("digraph targets {\n")
	for _, name := range g.Names() {
		fmt.Fprintf(&sb, "  %q;\n", name)
		for _, d := range g.targets[name].Deps {
			fmt.Fprintf(&sb, "  %q -> %q;\n", name, d)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// buildFileDir reports whether path is a BUILD file and returns its
// directory ("" for a root-level BUILD).
func buildFileDir(path string) (string, bool) {
	if path == "BUILD" {
		return "", true
	}
	if strings.HasSuffix(path, "/BUILD") {
		return strings.TrimSuffix(path, "/BUILD"), true
	}
	return "", false
}
