package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/repo"
)

// shardRepo builds a monorepo with many independent target subtrees. Every
// target declares slot files that do not exist yet, so creates within a
// subtree conflict at the target level (they chain) while different subtrees
// stay independent conflict-graph components — the partitionable workload the
// sharded scale-out is built for.
func shardRepo(subtrees, slots int) *repo.Repo {
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
	return repo.New(files)
}

// shardChanges is the deterministic change list: change i creates a distinct
// slot file in subtree i%subtrees; every 37th is build-broken so the green
// invariant is actually exercised.
func shardChanges(n, subtrees int) []*change.Change {
	out := make([]*change.Change, 0, n)
	for i := 0; i < n; i++ {
		content := fmt.Sprintf("content %d", i)
		if i%37 == 19 {
			content = "BROKEN " + content
		}
		out = append(out, &change.Change{
			ID:          change.ID(fmt.Sprintf("c%04d", i)),
			Author:      change.Developer{Name: "dev", Team: "t", Level: 3},
			Description: fmt.Sprintf("shard ablation %04d", i),
			Patch: repo.Patch{Changes: []repo.FileChange{{
				Path:       fmt.Sprintf("sub%03d/f%d.go", i%subtrees, i/subtrees),
				Op:         repo.OpCreate,
				NewContent: content,
			}}},
			BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
		})
	}
	return out
}

// AblationShards measures the sharded multi-planner scale-out (DESIGN.md
// §4h) on a many-subtree workload: the same change list is driven to
// quiescence with 1, 4, 8 and 16 planner shards, and throughput is committed
// changes per hour of wall clock. One engine pays a global O(n²) conflict
// pass per decision epoch; each of N engines pays O(k²) over its own
// component group, which is where the speedup comes from — the serialized
// commit arbiter keeps every configuration's mainline green and its committed
// set identical to the 1-shard run's.
func AblationShards(o Options) *Report {
	r := newReport("ablation-shards", "Ablation — sharded multi-planner scale-out (§4h)")
	subtrees := o.count(16, 64)
	n := o.count(128, 512)
	slots := (n + subtrees - 1) / subtrees
	shardGrid := []int{1, 4, 8, 16}

	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, _ string, snap repo.Snapshot) error {
		broken := false
		snap.Range(func(path, content string) bool {
			if strings.Contains(content, "BROKEN") {
				broken = true
				return false
			}
			return true
		})
		if broken {
			return fmt.Errorf("compile error: broken source in snapshot")
		}
		return nil
	})

	run := func(shards int) (secs float64, committed map[change.ID]bool, violations int) {
		rp := shardRepo(subtrees, slots)
		s := core.NewService(rp, core.Config{
			Workers: 16, Shards: shards, Runner: runner,
		})
		for _, c := range shardChanges(n, subtrees) {
			if err := s.Submit(c); err != nil {
				panic(err)
			}
		}
		ctx := context.Background()
		//lint:ignore wallclock throughput ablation measures real elapsed time
		start := time.Now()
		for s.PendingCount() > 0 {
			if err := s.Tick(ctx); err != nil {
				panic(err)
			}
			runtime.Gosched() // let the instant build workers drain
		}
		//lint:ignore wallclock throughput ablation measures real elapsed time
		secs = time.Since(start).Seconds()
		committed = map[change.ID]bool{}
		for _, out := range s.Outcomes() {
			if out.State == change.StateCommitted {
				committed[out.ID] = true
			}
		}
		for seq := 0; seq < rp.Len(); seq++ {
			commit, err := rp.At(seq)
			if err != nil {
				panic(err)
			}
			commit.Snapshot().Range(func(path, content string) bool {
				if strings.Contains(content, "BROKEN") {
					violations++
					return false
				}
				return true
			})
		}
		return secs, committed, violations
	}

	cph := func(committed int, secs float64) float64 {
		if secs <= 0 {
			return 0
		}
		return float64(committed) / (secs / 3600)
	}

	identical := 1.0
	violations := 0
	perShard := map[int]float64{}
	var rows []string
	var base map[change.ID]bool // the 1-shard run's committed set
	for _, shards := range shardGrid {
		secs, committed, v := run(shards)
		violations += v
		if base == nil {
			base = committed
		} else if len(committed) != len(base) {
			identical = 0
		} else {
			for id := range base {
				if !committed[id] {
					identical = 0
					break
				}
			}
		}
		perShard[shards] = cph(len(committed), secs)
		r.Metrics[fmt.Sprintf("committed_per_hour_%d", shards)] = perShard[shards]
		rows = append(rows, fmt.Sprintf("  %-8s %8.1fs  %12.0f committed/h  (%.2fx vs 1 shard)",
			fmt.Sprintf("%d shard", shards), secs, perShard[shards], ratio(perShard[shards], perShard[1])))
	}
	r.Metrics["speedup_4"] = ratio(perShard[4], perShard[1])
	r.Metrics["speedup_8"] = ratio(perShard[8], perShard[1])
	r.Metrics["speedup_16"] = ratio(perShard[16], perShard[1])
	r.Metrics["green_violations"] = float64(violations)
	r.Metrics["identical_committed_sets"] = identical
	r.Metrics["pending_changes"] = float64(n)
	r.Metrics["subtrees"] = float64(subtrees)

	r.Text = fmt.Sprintf(
		"%d pending changes over %d independent subtrees, commit throughput to quiescence:\n%s\n"+
			"  green violations: %d; committed sets identical across configurations: %v\n",
		n, subtrees, strings.Join(rows, "\n"), violations, identical == 1)
	return r
}
