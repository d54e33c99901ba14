package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// The shared input: a fixed-size synthetic monorepo of independent subtrees.
// Each subtree holds a small DAG of four targets (liba <- libb <- bin, and
// test on libb) with four source files per target, so buildgraph hashing,
// affected-target propagation and per-target step-units do real work. The
// file count and the BUILD files never change: a change inserts one line
// into one existing source file, so the cost of change i does not depend on
// how long the run is.
const (
	targetsPerSubtree = 4
	srcsPerTarget     = 4
	brokenToken       = "BROKEN"
)

var targetNames = [targetsPerSubtree]string{"liba", "libb", "bin", "test"}
var targetDeps = [targetsPerSubtree]string{"", "liba", "libb", "libb"}

func subtreeDir(s int) string { return fmt.Sprintf("s%03d", s) }

func srcPath(s, target, src int) string {
	return fmt.Sprintf("%s/%s_%d.go", subtreeDir(s), targetNames[target], src)
}

// benchFiles returns the initial tree of benchrepo(seed, subtrees).
func benchFiles(seed int64, subtrees int) map[string]string {
	rng := rand.New(rand.NewSource(seed))
	files := make(map[string]string, subtrees*(1+targetsPerSubtree*srcsPerTarget))
	for s := 0; s < subtrees; s++ {
		dir := subtreeDir(s)
		var build strings.Builder
		for t, name := range targetNames {
			build.WriteString("target " + name + " srcs=")
			for f := 0; f < srcsPerTarget; f++ {
				if f > 0 {
					build.WriteByte(',')
				}
				fmt.Fprintf(&build, "%s_%d.go", name, f)
				var src strings.Builder
				fmt.Fprintf(&src, "package %s // %s\n", name, dir)
				for l := 0; l < 6; l++ {
					fmt.Fprintf(&src, "func F%d_%d() int { return %d }\n", f, l, rng.Intn(1<<30))
				}
				files[srcPath(s, t, f)] = src.String()
			}
			if dep := targetDeps[t]; dep != "" {
				build.WriteString(" deps=//" + dir + ":" + dep)
			}
			build.WriteByte('\n')
		}
		files[dir+"/BUILD"] = build.String()
	}
	return files
}

// edit is change i of a workload as the harness knows it: the one line it
// inserts at the top of one source file. The oracle replays edits with its
// own line insert; the program under test sees only the derived patch.
type edit struct {
	id     string
	path   string
	line   string
	broken bool
}

// genEdits derives n edits from the seed. Change i lands in subtree
// i mod subtrees, so two changes in one subtree conflict and pending/subtrees
// is the conflict-chain depth. The seed decides where things fall, not how
// many there are: every block of 10 changes holds exactly one BROKEN one and
// every block of 16 uses each of the 16 file positions (target x source) of
// a subtree once, so runs of different seeds do the same amount of work and a
// metric's spread across seeds is the machine's, not the input's.
func genEdits(seed int64, prefix string, n, subtrees int) []edit {
	rng := rand.New(rand.NewSource(seed*1000003 + 17))
	const files = targetsPerSubtree * srcsPerTarget
	out := make([]edit, n)
	var fileOrder []int
	brokenAt := 0
	for i := range out {
		if i%files == 0 {
			fileOrder = rng.Perm(files)
		}
		if i%10 == 0 {
			brokenAt = rng.Intn(10)
		}
		file := fileOrder[i%files]
		e := edit{
			id:     fmt.Sprintf("%s%06d", prefix, i),
			path:   srcPath(i%subtrees, file/srcsPerTarget, file%srcsPerTarget),
			broken: i%10 == brokenAt,
		}
		e.line = fmt.Sprintf("// %s rev %08x", e.id, rng.Uint32())
		if e.broken {
			e.line += " " + brokenToken
		}
		out[i] = e
	}
	return out
}

func (e edit) patch() repo.Patch {
	return repo.Patch{Changes: []repo.FileChange{repo.InsertLines(e.path, 1, []string{e.line})}}
}

// change builds the in-process submission for the edit.
func (e edit) change(steps []change.BuildStep) *change.Change {
	return &change.Change{
		ID:          change.ID(e.id),
		Author:      change.Developer{Name: "bench", Team: "bench", Level: 3},
		Description: e.id,
		Revision:    &change.Revision{ID: change.RevisionID("r-" + e.id), TestPlan: true},
		Patch:       e.patch(),
		BuildSteps:  steps,
		Stats:       change.Stats{FilesChanged: 1, LinesAdded: 1},
	}
}

// submitBody renders the edit as a POST /api/v1/changes body.
func (e edit) submitBody() []byte {
	return []byte(fmt.Sprintf(`{"id":%q,"author":"bench","team":"bench","test_plan":true,`+
		`"files":[{"path":%q,"op":"edit-lines","start_line":1,"new_lines":[%q]}]}`,
		e.id, e.path, e.line))
}

// stepRunner is the harness's build executor: a step-unit fails when one of
// the built target's own source files holds the BROKEN token. It reads only
// that target's files, so its cost is per target, not per tree. delay
// simulates build duration (0 = instant). commitBroken is the fault switch
// of the self-test: when set the runner passes everything, a BROKEN change
// lands, and the oracle must fail the run.
type stepRunner struct {
	delay        time.Duration
	commitBroken bool
	// busy counts step-units inside RunStep, so a stepping harness can wait
	// for builds without polling the controller in a loop.
	busy *atomic.Int64
}

func newStepRunner(delay time.Duration, commitBroken bool) stepRunner {
	return stepRunner{delay: delay, commitBroken: commitBroken, busy: new(atomic.Int64)}
}

func (r stepRunner) RunStep(ctx context.Context, _ change.BuildStep, target string, snap repo.Snapshot) error {
	r.busy.Add(1)
	defer r.busy.Add(-1)
	if r.delay > 0 {
		t := time.NewTimer(r.delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	if r.commitBroken {
		return nil
	}
	// target is "//s012:libb"; its sources are s012/libb_0.go .. libb_3.go.
	dir, name, ok := strings.Cut(strings.TrimPrefix(target, "//"), ":")
	if !ok {
		return nil
	}
	for f := 0; f < srcsPerTarget; f++ {
		p := fmt.Sprintf("%s/%s_%d.go", dir, name, f)
		if content, ok := snap.Read(p); ok && strings.Contains(content, brokenToken) {
			return fmt.Errorf("compile error: %s holds %s", p, brokenToken)
		}
	}
	return nil
}

var _ buildsys.StepRunner = stepRunner{}
