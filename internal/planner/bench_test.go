package planner

import (
	"context"
	"fmt"
	"testing"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/predict"
	"mastergreen/internal/queue"
	"mastergreen/internal/repo"
	"mastergreen/internal/speculation"
)

// benchChainRepo builds an n-deep dependency chain (t0 ← t1 ← … ← t(n-1))
// with one pending edit per link. Every pair of changes conflicts at the
// target level, so the speculation plan is the paper's prefix chain:
// B(c0), B(c0⊕c1), …, B(c0⊕…⊕c(n-1)) — average depth (n+1)/2.
func benchChainRepo(n int) (*repo.Repo, []*change.Change) {
	files := make(map[string]string, 2*n)
	for i := 0; i < n; i++ {
		dep := ""
		if i > 0 {
			dep = fmt.Sprintf(" deps=//d%02d:t%02d", i-1, i-1)
		}
		files[fmt.Sprintf("d%02d/BUILD", i)] = fmt.Sprintf("target t%02d srcs=f.go%s", i, dep)
		files[fmt.Sprintf("d%02d/f.go", i)] = "v1"
	}
	r := repo.New(files)
	changes := make([]*change.Change, n)
	for i := 0; i < n; i++ {
		changes[i] = &change.Change{
			ID: change.ID(fmt.Sprintf("c%02d", i)),
			Patch: repo.Patch{Changes: []repo.FileChange{{
				Path: fmt.Sprintf("d%02d/f.go", i), Op: repo.OpModify,
				BaseHash: repo.HashContent("v1"), NewContent: "v2",
			}}},
			BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
		}
	}
	return r, changes
}

// benchIndependentRepo builds n mutually independent single-target packages
// with one pending edit each — the 64-pending idle-epoch scenario.
func benchIndependentRepo(n int) (*repo.Repo, []*change.Change) {
	files := make(map[string]string, 2*n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("p%03d/BUILD", i)] = fmt.Sprintf("target t%03d srcs=f.go", i)
		files[fmt.Sprintf("p%03d/f.go", i)] = "v1"
	}
	r := repo.New(files)
	changes := make([]*change.Change, n)
	for i := 0; i < n; i++ {
		changes[i] = &change.Change{
			ID: change.ID(fmt.Sprintf("i%03d", i)),
			Patch: repo.Patch{Changes: []repo.FileChange{{
				Path: fmt.Sprintf("p%03d/f.go", i), Op: repo.OpModify,
				BaseHash: repo.HashContent("v1"), NewContent: "v2",
			}}},
			BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
		}
	}
	return r, changes
}

// holdOpenRunner blocks every build until its context is cancelled, freezing
// an epoch mid-flight so preparation and idle-tick costs can be measured.
func holdOpenRunner() buildsys.StepRunner {
	return buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, _ repo.Snapshot) error {
		<-ctx.Done()
		return buildsys.ErrAborted
	})
}

func newBenchPlanner(r *repo.Repo, runner buildsys.StepRunner, cfg Config) (*Planner, *queue.Queue) {
	q := queue.New(1)
	an := conflict.New(r)
	spec := speculation.New(predict.Static{Success: 0.95, Conflict: 0.05})
	ctrl := buildsys.NewController(8, runner)
	return New(r, q, an, spec, ctrl, cfg), q
}

// runChainEpoch submits n chained conflicting changes and runs one planning
// epoch with every build held open, so speculation builds of depth 1..n are
// all prepared. Returns the epoch's stats and the average build depth.
func runChainEpoch(tb testing.TB, n int) (Stats, float64) {
	tb.Helper()
	r, changes := benchChainRepo(n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, q := newBenchPlanner(r, holdOpenRunner(), Config{Budget: n})
	for _, c := range changes {
		if err := q.Enqueue(c); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := p.Tick(ctx); err != nil {
		tb.Fatal(err)
	}
	st := p.Stats()
	if st.BuildsStarted != n {
		tb.Fatalf("started %d of %d chain builds", st.BuildsStarted, n)
	}
	depthSum := 0
	p.mu.Lock()
	for _, rb := range p.running {
		depthSum += len(rb.build.Changes)
	}
	p.mu.Unlock()
	return st, float64(depthSum) / float64(n)
}

// TestPrefixTrieReducesPreparation is the acceptance headline: preparing one
// epoch of 8 chained speculation builds (average depth 4.5) costs at most 3.6
// preparation operations — buildgraph.Analyze calls plus per-patch merge
// units — per started build (measured 2.1: one analyze and one single-patch
// apply per trie node, plus the head's analyze).
func TestPrefixTrieReducesPreparation(t *testing.T) {
	const n = 8
	st, avgDepth := runChainEpoch(t, n)
	if avgDepth < 4 {
		t.Fatalf("average speculation depth %.1f < 4; scenario lost its chain", avgDepth)
	}
	perBuild := float64(st.PrepOps()) / float64(st.BuildsStarted)
	t.Logf("prep ops/build: %.1f; analyses %d, merges %d, hits=%d",
		perBuild, st.SnapshotAnalyses, st.PatchApplies, st.PrefixHits)
	if perBuild > 3.6 {
		t.Fatalf("preparation costs %.1f ops/build, want <= 3.6", perBuild)
	}
	if st.PrefixHits == 0 {
		t.Fatalf("trie never hit: %+v", st)
	}
	if st.HeadGraphBuilds != 1 {
		t.Fatalf("head graph analyzed %d times, want once per head", st.HeadGraphBuilds)
	}
}

// BenchmarkChainEpochIncremental measures preparing one 8-deep chain epoch
// through the prefix trie.
func BenchmarkChainEpochIncremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runChainEpoch(b, 8)
	}
}

// BenchmarkIdleTickMemoized measures the steady-state Run-loop epoch at 64
// pending changes with the build slots saturated and nothing resolving: the
// planner skips via the input fingerprint.
func BenchmarkIdleTickMemoized(b *testing.B) {
	r, changes := benchIndependentRepo(64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, q := newBenchPlanner(r, holdOpenRunner(), Config{Budget: 4})
	for _, c := range changes {
		if err := q.Enqueue(c); err != nil {
			b.Fatal(err)
		}
	}
	// Two warm-up ticks reach the steady state (builds started, memo primed).
	for i := 0; i < 2; i++ {
		if _, err := p.Tick(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Tick(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsoletePrune measures the §4j obsolescence predicate over a full
// chain epoch's running set — the work resolve adds to every resolution. No
// build here is obsolete, so the bench isolates pure predicate cost (the
// stale checks plus the dominated-key scan) without cancel traffic.
func BenchmarkObsoletePrune(b *testing.B) {
	const n = 12
	r, changes := benchChainRepo(n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, q := newBenchPlanner(r, holdOpenRunner(), Config{Budget: n})
	for _, c := range changes {
		if err := q.Enqueue(c); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := p.Tick(ctx); err != nil {
		b.Fatal(err)
	}
	if running(p) != n {
		b.Fatalf("running = %d, want %d", running(p), n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.mu.Lock()
		for _, rb := range p.running {
			if p.obsoleteLocked(rb, nil) {
				p.mu.Unlock()
				b.Fatal("live build judged obsolete")
			}
		}
		p.mu.Unlock()
	}
}
