package lint

import "strings"

// Policy decides which analyzers govern which packages.
type Policy interface {
	// Applies reports whether the named analyzer runs on the package with
	// the given module-relative path.
	Applies(analyzer, relPath string) bool
}

// Rule scopes one analyzer to a set of package-path patterns. A pattern is a
// module-relative path matched exactly, a "dir/..." prefix, or "..." for
// every package.
type Rule struct {
	Analyzer string
	Packages []string
}

// TablePolicy is a Policy declared as one Go table: the rule list is the
// single source of truth for where each invariant is enforced.
type TablePolicy []Rule

// DefaultPolicy scopes the suite to this repository.
//
// The wallclock set is the sim-deterministic core — every package whose
// behavior must replay bit-for-bit from an injected clock — plus the services
// (api, core, events) that read real time from the one clock.Clock; only
// internal/clock, which wraps the wall, stays out. The maporder set is every
// package where iteration order feeds a hash, a plan, or a persisted
// artifact. locksend and errdrop are repo-wide: a controller deadlock or a
// silently dropped error anywhere can take the queue down.
var DefaultPolicy = TablePolicy{
	{Analyzer: "wallclock", Packages: []string{
		"internal/sim",
		"internal/planner",
		"internal/speculation",
		"internal/sched",
		"internal/queue",
		"internal/conflict",
		"internal/core",
		"internal/api",
		"internal/events",
		"internal/reliability",
		"internal/shard",
		"internal/arbiter",
		"internal/experiments",
		"internal/workload",
		"internal/predict",
		"internal/buildgraph",
		"internal/buildsys",
		"internal/strategies",
		"internal/metrics",
	}},
	{Analyzer: "seedrand", Packages: []string{"internal/...", "cmd/..."}},
	{Analyzer: "maporder", Packages: []string{
		"internal/buildgraph",
		"internal/buildsys",
		"internal/planner",
		"internal/speculation",
		"internal/sched",
		"internal/conflict",
		"internal/queue",
		"internal/repo",
		"internal/predict",
		"internal/change",
		"internal/workload",
		"internal/experiments",
		"internal/sim",
		"internal/core",
		"internal/strategies",
		"internal/reliability",
		"internal/shard",
		"internal/arbiter",
	}},
	{Analyzer: "locksend", Packages: []string{"..."}},
	{Analyzer: "errdrop", Packages: []string{"internal/...", "cmd/..."}},
	// The interprocedural suite (mglint v2). lockorder and goleak are
	// repo-wide like locksend: a deadlock cycle or a leaked goroutine
	// anywhere takes the queue down. atomicmix covers all first-party code.
	// tainttime governs the same sim-deterministic core as wallclock — it is
	// wallclock's transitive closure.
	{Analyzer: "lockorder", Packages: []string{"..."}},
	{Analyzer: "goleak", Packages: []string{"..."}},
	{Analyzer: "atomicmix", Packages: []string{"internal/...", "cmd/..."}},
	{Analyzer: "tainttime", Packages: []string{
		"internal/sim",
		"internal/planner",
		"internal/speculation",
		"internal/sched",
		"internal/queue",
		"internal/conflict",
		"internal/core",
		"internal/events",
		"internal/reliability",
		"internal/shard",
		"internal/arbiter",
		"internal/experiments",
		"internal/workload",
		"internal/predict",
		"internal/buildgraph",
		"internal/buildsys",
		"internal/strategies",
		"internal/metrics",
	}},
}

// Applies implements Policy.
func (t TablePolicy) Applies(analyzer, relPath string) bool {
	for _, r := range t {
		if r.Analyzer != analyzer {
			continue
		}
		for _, pat := range r.Packages {
			if matchPattern(pat, relPath) {
				return true
			}
		}
	}
	return false
}

// matchPattern matches a module-relative path against a pattern: exact,
// "dir/..." prefix, or the catch-all "...".
func matchPattern(pat, relPath string) bool {
	if pat == "..." {
		return true
	}
	if strings.HasSuffix(pat, "/...") {
		prefix := strings.TrimSuffix(pat, "/...")
		return relPath == prefix || strings.HasPrefix(relPath, prefix+"/")
	}
	return pat == relPath
}

// allPolicy applies every analyzer everywhere (fixture tests).
type allPolicy struct{}

func (allPolicy) Applies(string, string) bool { return true }

// AllPolicy returns a policy with no scoping, for tests and one-off runs.
func AllPolicy() Policy { return allPolicy{} }
