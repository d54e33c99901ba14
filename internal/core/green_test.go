package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/planner"
	"mastergreen/internal/repo"
)

// TestIndependentCommitKeepsDecisiveBuild: c1 and c2 touch disjoint
// subtrees, so c1's commit leaves c2's running decisive build valid (Eq. 6)
// — one engine, two workers, c2's build gated until c1 has committed. The
// controller must run exactly two builds and abort none: c2's build at the
// older base decides c2.
func TestIndependentCommitKeepsDecisiveBuild(t *testing.T) {
	r := wakeRepo(2)
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, target string, _ repo.Snapshot) error {
		switch target {
		case "//s0:s0":
			<-entered // c1 commits only once c2's build is running
		case "//s1:s1":
			once.Do(func() { close(entered) })
			select {
			case <-release:
			case <-ctx.Done():
				return buildsys.ErrAborted
			}
		}
		return nil
	})
	s := NewService(r, Config{Workers: 2, Runner: runner})
	c1 := mkChange(r, "c1", "s0/a.go", "c1")
	c2 := mkChange(r, "c2", "s1/a.go", "c2")
	for _, c := range []*change.Change{c1, c2} {
		if err := s.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	defer s.Stop()
	awaitDecided(t, s, []change.ID{"c1"}, 5*time.Second)
	close(release)
	awaitDecided(t, s, []change.ID{"c2"}, 5*time.Second)
	for _, id := range []change.ID{"c1", "c2"} {
		if o, _ := s.State(id); o.State != change.StateCommitted {
			t.Fatalf("%s: %+v, want committed", id, o)
		}
	}
	if st := s.BuildStats(); st.Builds != 2 || st.Aborted != 0 {
		t.Fatalf("builds = %d, aborted = %d; want 2 and 0: c1's commit staled c2's decisive build", st.Builds, st.Aborted)
	}
}

// staleRun submits one change S to s0/a.go, and while S's first build is
// running at base H lands a change X to s0/b.go directly through the
// arbiter, as another engine would: X touches S's footprint and S's build
// did not merge it. verdict judges target //s0:s0 from a.go and b.go. It
// returns S's decision, the service's planner stats and the mainline.
func staleRun(t *testing.T, sBody, xBody string, verdict func(a, b string) error) (planner.Outcome, planner.Stats, *repo.Repo) {
	t.Helper()
	r := wakeRepo(1)
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, target string, snap repo.Snapshot) error {
		once.Do(func() {
			close(entered)
			select {
			case <-release:
			case <-ctx.Done():
			}
		})
		a, _ := snap.Read("s0/a.go")
		b, _ := snap.Read("s0/b.go")
		return verdict(a, b)
	})
	s := NewService(r, Config{Workers: 2, Runner: runner})
	sub := mkChange(r, "S", "s0/a.go", sBody)
	x := mkChange(r, "X", "s0/b.go", xBody)
	if err := s.Submit(sub); err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	<-entered
	if _, err := s.analyzer.Analyze(x); err != nil { // X's footprint is known, not assumed
		t.Fatal(err)
	}
	if _, err := s.arb.Commit(planner.CommitProposal{
		Change: x, BaseLen: r.Len(), Applied: []change.ID{x.ID},
		Targets: []string{"//s0:s0"}, Paths: x.Patch.Paths(), Now: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	close(release)
	awaitDecided(t, s, []change.ID{"S"}, 5*time.Second)
	o, _ := s.State("S")
	return o, s.PlannerStats(), r
}

// TestStalePassIsRebuiltNotCommitted: S and X are each green but red
// together. S's build at H passes; X lands before S proposes. The Eq. 6
// check must bounce the pass, and S's rebuild on top of X fails: S is
// rejected and the mainline stays green.
func TestStalePassIsRebuiltNotCommitted(t *testing.T) {
	o, ps, r := staleRun(t, "lo", "hi", func(a, b string) error {
		if a == "lo" && b == "hi" {
			return errors.New("lo and hi clash")
		}
		return nil
	})
	if o.State != change.StateRejected {
		t.Fatalf("S: %+v, want rejected after its rebuild on top of X", o)
	}
	if a, _ := r.Head().Snapshot().Read("s0/a.go"); a == "lo" {
		t.Fatal("the stale pass committed S on top of X: mainline red")
	}
	if ps.CrossShardRebuilds != 1 {
		t.Fatalf("stale-result rebuilds = %d, want 1", ps.CrossShardRebuilds)
	}
}

// TestStaleFailureIsRebuiltNotRejected: S fails at H and passes once X has
// landed. X lands while S's first build runs, so that failure no longer
// speaks for S: it must be rebuilt, not used to reject S.
func TestStaleFailureIsRebuiltNotRejected(t *testing.T) {
	o, ps, _ := staleRun(t, "needs-fix", "fixed", func(a, b string) error {
		if a == "needs-fix" && b != "fixed" {
			return errors.New("needs the fix")
		}
		return nil
	})
	if o.State != change.StateCommitted {
		t.Fatalf("S: %+v, want committed after its rebuild on top of X", o)
	}
	if ps.CrossShardRebuilds != 1 {
		t.Fatalf("stale-result rebuilds = %d, want 1", ps.CrossShardRebuilds)
	}
}

// greenDirs are the subtrees of the every-commit-point-green load; each
// holds one target "//gK:gK" over greenSrcs.
var greenDirs = []string{"g0", "g1", "g2", "g3", "g4", "g5"}

var greenSrcs = []string{"a.go", "b.go", "c.go", "d.go"}

// greenBuild is dir's BUILD text, depending on target //dep:dep unless dep
// is empty.
func greenBuild(dir, dep string) string {
	line := "target " + dir + " srcs=" + strings.Join(greenSrcs, ",")
	if dep != "" {
		line += " deps=//" + dep + ":" + dep
	}
	return line
}

// greenVerdict is the load's build rule, written against the BUILD text
// alone: target //d:d is red when a source of d or of any target it depends
// on, transitively, reads BROKEN, when those sources hold both "lo" and
// "hi", or when its dependencies are missing or cyclic.
func greenVerdict(target string, snap repo.Snapshot) error {
	dir, _, _ := strings.Cut(strings.TrimPrefix(target, "//"), ":")
	state := map[string]int{} // 1: on the walk's stack, 2: done
	var lo, hi bool
	var walk func(d string) error
	walk = func(d string) error {
		switch state[d] {
		case 1:
			return fmt.Errorf("dependency cycle through %s", d)
		case 2:
			return nil
		}
		state[d] = 1
		build, ok := snap.Read(d + "/BUILD")
		if !ok {
			return fmt.Errorf("missing target //%s:%s", d, d)
		}
		for _, f := range strings.Fields(build) {
			if srcs, ok := strings.CutPrefix(f, "srcs="); ok {
				for _, src := range strings.Split(srcs, ",") {
					switch content, _ := snap.Read(d + "/" + src); content {
					case "BROKEN":
						return fmt.Errorf("%s/%s is BROKEN", d, src)
					case "lo":
						lo = true
					case "hi":
						hi = true
					}
				}
			}
			if deps, ok := strings.CutPrefix(f, "deps="); ok {
				for _, dep := range strings.Split(deps, ",") {
					depDir, _, _ := strings.Cut(strings.TrimPrefix(dep, "//"), ":")
					if err := walk(depDir); err != nil {
						return err
					}
				}
			}
		}
		state[d] = 2
		return nil
	}
	if err := walk(dir); err != nil {
		return err
	}
	if lo && hi {
		return errors.New("lo and hi meet in one target")
	}
	return nil
}

// greenLoad returns the seed repository and n changes drawn from seed:
// edits of independent subtrees, chains of edits within one subtree, edits
// that only create a file no target reads, BUILD edits that add a
// dependency on another subtree (cycles included), BROKEN sources and
// "lo"/"hi" sources that are red only together. Each change is written
// against the seed, so two edits of one file conflict at merge.
func greenLoad(rng *rand.Rand, n int) (*repo.Repo, []*change.Change) {
	files := map[string]string{}
	for _, d := range greenDirs {
		files[d+"/BUILD"] = greenBuild(d, "")
		for _, f := range greenSrcs {
			files[d+"/"+f] = d + " " + f + " v0"
		}
	}
	r := repo.New(files)
	var cs []*change.Change
	for i := 0; i < n; i++ {
		di := rng.Intn(len(greenDirs))
		d := greenDirs[di]
		path, body := d+"/"+greenSrcs[rng.Intn(len(greenSrcs))], fmt.Sprintf("v%d", i)
		switch k := rng.Intn(10); {
		case k == 0:
			body = "BROKEN"
		case k <= 2:
			body = []string{"lo", "hi"}[rng.Intn(2)]
		case k == 3:
			dep := greenDirs[(di+1+rng.Intn(len(greenDirs)-1))%len(greenDirs)]
			path, body = d+"/BUILD", greenBuild(d, dep)
		case k == 4:
			path = fmt.Sprintf("%s/notes%d.txt", d, i)
		}
		c := mkChange(r, fmt.Sprintf("c%02d", i), path, body)
		c.Description = "green " + string(c.ID)
		cs = append(cs, c)
	}
	return r, cs
}

// TestEveryCommitPointGreen drives the mixed load of greenLoad through a
// started service with a random delay on every build unit, half the changes submitted while the first half is being
// decided. Then it checks, from the outside: each accepted change is decided
// exactly once; the mainline holds one commit per committed change, each
// landing that change's patch on the point before it; and every target of
// every commit point passes the load's build rule. 200 seeds.
func TestEveryCommitPointGreen(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		greenRun(t, seed)
	}
}

func greenRun(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r, cs := greenLoad(rng, 16)
	var mu sync.Mutex
	delays := rand.New(rand.NewSource(seed))
	runner := buildsys.RunnerFunc(func(ctx context.Context, _ change.BuildStep, target string, snap repo.Snapshot) error {
		mu.Lock()
		d := time.Duration(delays.Intn(300)) * time.Microsecond
		mu.Unlock()
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return buildsys.ErrAborted
		}
		return greenVerdict(target, snap)
	})
	s := NewService(r, Config{Workers: 4, Runner: runner})
	byID := map[change.ID]*change.Change{}
	byMsg := map[string]*change.Change{}
	var ids []change.ID
	submit := func(cs []*change.Change) {
		for _, c := range cs {
			if err := s.Submit(c); err != nil {
				t.Fatal(err)
			}
			byID[c.ID], byMsg[c.Description] = c, c
			ids = append(ids, c.ID)
		}
	}
	submit(cs[:len(cs)/2])
	s.Start()
	time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
	submit(cs[len(cs)/2:])
	awaitDecided(t, s, ids, 10*time.Second)
	s.Stop()

	where := fmt.Sprintf("seed %d", seed)
	decided := map[change.ID]int{}
	committed := 0
	for _, o := range s.Outcomes() {
		if byID[o.ID] == nil {
			t.Fatalf("%s: decision for unknown change %s", where, o.ID)
		}
		if decided[o.ID]++; decided[o.ID] > 1 {
			t.Fatalf("%s: %s decided twice", where, o.ID)
		}
		if o.State == change.StateCommitted {
			committed++
		}
	}
	if len(decided) != len(ids) {
		t.Fatalf("%s: %d of %d accepted changes decided", where, len(decided), len(ids))
	}
	if r.Len() != committed+1 {
		t.Fatalf("%s: %d commits on the mainline for %d committed changes", where, r.Len()-1, committed)
	}
	prev, err := r.At(0)
	if err != nil {
		t.Fatal(err)
	}
	landed := map[string]bool{}
	for seq := 0; seq < r.Len(); seq++ {
		point, err := r.At(seq)
		if err != nil {
			t.Fatal(err)
		}
		snap := point.Snapshot()
		if seq > 0 {
			c := byMsg[point.Message]
			if c == nil || landed[point.Message] {
				t.Fatalf("%s: commit %d (%q) is no accepted change, or lands one twice", where, seq, point.Message)
			}
			landed[point.Message] = true
			if o, _ := s.State(c.ID); o.State != change.StateCommitted {
				t.Fatalf("%s: commit %d lands %s, decided %+v", where, seq, c.ID, o)
			}
			want, err := prev.Snapshot().Apply(c.Patch)
			if err != nil || want.ContentID() != snap.ContentID() {
				t.Fatalf("%s: commit %d is not %s's patch on commit %d (%v)", where, seq, c.ID, seq-1, err)
			}
		}
		for _, d := range greenDirs {
			if err := greenVerdict("//"+d+":"+d, snap); err != nil {
				t.Fatalf("%s: commit point %d is red: %v", where, seq, err)
			}
		}
		prev = point
	}
}
