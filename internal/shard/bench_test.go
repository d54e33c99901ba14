package shard

import (
	"context"
	"fmt"
	"testing"

	"mastergreen/internal/arbiter"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/planner"
	"mastergreen/internal/predict"
	"mastergreen/internal/queue"
	"mastergreen/internal/repo"
	"mastergreen/internal/speculation"
)

// benchRuntime builds a runtime over a many-subtree monorepo with n pending
// changes already adopted and partitioned across 8 engines.
func benchRuntime(b *testing.B, n, subtrees int) *Runtime {
	b.Helper()
	rt, intake := newRuntime(subtrees, (n+subtrees-1)/subtrees, 8)
	for i := 0; i < n; i++ {
		c := &change.Change{
			ID: change.ID(fmt.Sprintf("c%04d", i)),
			Patch: repo.Patch{Changes: []repo.FileChange{{
				Path:       fmt.Sprintf("sub%03d/f%d.go", i%subtrees, i/subtrees),
				Op:         repo.OpCreate,
				NewContent: fmt.Sprintf("content %d", i),
			}}},
			BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
		}
		if err := intake.Enqueue(c); err != nil {
			b.Fatal(err)
		}
	}
	rt.Partition() // adopt + first heavy partition
	return rt
}

// newRuntime builds a runtime with the given number of engines over a
// monorepo of subtrees sub000, sub001, …, each one target over lib.go and
// slot files f0.go…f{slots-1}.go that do not exist yet, and returns it with
// its intake queue. Builds pass at once.
func newRuntime(subtrees, slots, engines int) (*Runtime, *queue.Queue) {
	srcs := "lib.go"
	for s := 0; s < slots; s++ {
		srcs += fmt.Sprintf(",f%d.go", s)
	}
	files := map[string]string{}
	for i := 0; i < subtrees; i++ {
		dir := fmt.Sprintf("sub%03d", i)
		files[dir+"/BUILD"] = "target t srcs=" + srcs
		files[dir+"/lib.go"] = "lib v1"
	}
	rp := repo.New(files)
	intake := queue.New(1)
	an := conflict.New(rp)
	arb := arbiter.New(rp, arbiter.Config{Analyzer: an})
	runner := buildsys.RunnerFunc(func(context.Context, change.BuildStep, string, repo.Snapshot) error {
		return nil
	})
	rt := New(rp, intake, an, arb, buildsys.NewController(4, runner), Config{
		Shards:  engines,
		Planner: planner.Config{Budget: 16},
		Spec: func() *speculation.Engine {
			return speculation.New(predict.Static{Success: 0.9, Conflict: 0.05})
		},
	})
	return rt, intake
}

// BenchmarkHeavyPartition measures one full coordinator epoch — global
// conflict graph, connected components, rendezvous assignment — over 256
// pending changes in 64 subtrees.
func BenchmarkHeavyPartition(b *testing.B) {
	rt := benchRuntime(b, 256, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.mu.Lock()
		rt.first = true // force the heavy path
		rt.mu.Unlock()
		rt.Partition()
	}
}

// BenchmarkLightPartition measures the quiet-epoch coordinator pass that
// skips the graph rebuild entirely.
func BenchmarkLightPartition(b *testing.B) {
	rt := benchRuntime(b, 256, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Partition()
	}
}

// BenchmarkEngineViewBuildGraph measures one engine's conflict source: the
// live applicability check plus the induced O(k²) subgraph over its own
// component group (k = 32), versus the global O(n²) one engine pays.
func BenchmarkEngineViewBuildGraph(b *testing.B) {
	rt := benchRuntime(b, 256, 64)
	rt.mu.Lock()
	var pending []*change.Change
	for _, m := range rt.members {
		//lint:ignore maporder pending is a benchmark sample, order-insensitive
		if m.shard == 0 {
			pending = append(pending, m.c)
		}
	}
	rt.mu.Unlock()
	if len(pending) == 0 {
		b.Fatal("no members on shard 0")
	}
	view := &engineView{rt: rt}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, failed := view.BuildGraph(pending); len(failed) != 0 {
			b.Fatalf("unexpected failures: %v", failed)
		}
	}
}
