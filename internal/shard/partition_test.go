package shard

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

// walkAnchor is the component anchor as the coordinator once computed it on
// every heavy pass, walking each member's Patch.Paths(). Callers hold rt.mu.
func walkAnchor(rt *Runtime, comp []change.ID) string {
	anchor := ""
	for _, id := range comp {
		m, ok := rt.members[id]
		if !ok {
			continue
		}
		for _, p := range m.c.Patch.Paths() {
			top := p
			if i := strings.IndexByte(p, '/'); i >= 0 {
				top = p[:i]
			}
			if anchor == "" || top < anchor {
				anchor = top
			}
		}
	}
	if anchor == "" && len(comp) > 0 {
		anchor = string(comp[0])
	}
	return anchor
}

// TestPartitionMatchesPathWalk: over interleaved adoptions and decisions,
// every member a heavy pass places sits on the engine the per-component
// Patch.Paths() walk picks, though anchors are now computed once per member
// at adoption. Patches span subtrees, so components merge, and some
// paths start with "/", whose empty top-level directory restarts the walk.
func TestPartitionMatchesPathWalk(t *testing.T) {
	rt, intake := newRuntime(12, 8, 4)
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	next, checked, engines := 0, 0, map[int]bool{}
	submit := func(paths ...string) {
		var fcs []repo.FileChange
		for _, path := range paths {
			fcs = append(fcs, repo.FileChange{Path: path, Op: repo.OpCreate, NewContent: fmt.Sprintf("v%d", next)})
		}
		c := &change.Change{
			ID:         change.ID(fmt.Sprintf("c%04d", next)),
			Patch:      repo.Patch{Changes: fcs},
			BuildSteps: []change.BuildStep{{Name: "compile", Kind: change.StepCompile}},
		}
		next++
		if err := intake.Enqueue(c); err != nil {
			t.Fatal(err)
		}
	}
	// One component whose walk restarts at its last member: sub001 would
	// anchor it on engine 0, the walk's sub003 puts it on engine 1.
	submit("sub001/f0.go")
	submit("sub003/f0.go", "sub001/f1.go")
	submit("/sub000/f0.go", "sub003/f1.go")
	for round := 0; round < 40; round++ {
		for k := rng.Intn(10); round > 0 && k > 0; k-- {
			// Mostly one subtree; a quarter reach into a second one, half of
			// those through a path with a leading "/".
			paths := []string{fmt.Sprintf("sub%03d/f%d.go", rng.Intn(12), rng.Intn(8))}
			if rng.Intn(4) == 0 {
				second := fmt.Sprintf("sub%03d/f%d.go", rng.Intn(12), rng.Intn(8))
				if rng.Intn(2) == 0 {
					second = "/" + second
				}
				paths = append(paths, second)
			}
			submit(paths...)
		}
		heavy := rt.Stats().HeavyPartitions
		rt.Partition()
		rt.mu.Lock()
		check := func(comp []change.ID) {
			want := engineFor(walkAnchor(rt, comp), len(rt.engines))
			for _, id := range comp {
				if m, ok := rt.members[id]; ok {
					if m.shard != want {
						t.Errorf("round %d: %s on engine %d, the path walk over %v picks %d", round, id, m.shard, comp, want)
					}
					checked++
					engines[m.shard] = true
				}
			}
		}
		// A quiet pass keeps the placements of the last heavy one, whose
		// components held members decided since: only a heavy one is checked.
		if rt.stats.HeavyPartitions != heavy {
			for _, comp := range rt.graph.Components() {
				check(comp)
			}
			for id := range rt.failed {
				check([]change.ID{id})
			}
		}
		rt.mu.Unlock()
		for i := rng.Intn(4); i > 0; i-- {
			if _, err := rt.Tick(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if decided := len(rt.OutcomesSince(0)); checked < 200 || len(engines) < 3 || decided < 50 {
		t.Fatalf("checked %d placements on %d engines between %d decisions; the test exercises too little", checked, len(engines), decided)
	}
}

// TestEngineForPinned pins the component→engine assignment for 50 anchors at
// 1, 4, 8 and 16 engines. The expected indices were captured from the
// Helix-style shard coordinator that engineFor replaced, so any drift in the
// hash input or the tie rule fails here before it moves a harness hash.
func TestEngineForPinned(t *testing.T) {
	engines := [4]int{1, 4, 8, 16}
	for _, tc := range []struct {
		anchor string
		want   [4]int
	}{
		{"", [4]int{0, 0, 0, 15}},
		{"a", [4]int{0, 0, 7, 14}},
		{"app", [4]int{0, 3, 6, 6}},
		{"lib", [4]int{0, 3, 7, 15}},
		{"doc", [4]int{0, 3, 4, 4}},
		{"src", [4]int{0, 3, 6, 9}},
		{"c0001", [4]int{0, 3, 5, 15}},
		{"component00", [4]int{0, 1, 7, 7}},
		{"component07", [4]int{0, 3, 3, 15}},
		{"component15", [4]int{0, 1, 1, 1}},
		{"svc", [4]int{0, 2, 2, 11}},
		{"web", [4]int{0, 3, 3, 12}},
		{"mobile", [4]int{0, 1, 1, 1}},
		{"infra", [4]int{0, 0, 4, 13}},
		{"tools", [4]int{0, 3, 3, 3}},
		{"third_party", [4]int{0, 2, 4, 4}},
		{"Z", [4]int{0, 0, 4, 8}},
		{"ünïcode", [4]int{0, 1, 6, 15}},
		{"sub|shard-1", [4]int{0, 2, 5, 5}},
		{"x/y", [4]int{0, 3, 3, 9}},
		{"sub000", [4]int{0, 2, 7, 7}},
		{"sub007", [4]int{0, 1, 1, 11}},
		{"sub014", [4]int{0, 2, 7, 7}},
		{"sub021", [4]int{0, 1, 4, 4}},
		{"sub028", [4]int{0, 1, 7, 13}},
		{"sub035", [4]int{0, 0, 0, 0}},
		{"sub042", [4]int{0, 3, 6, 12}},
		{"sub049", [4]int{0, 1, 4, 4}},
		{"sub056", [4]int{0, 2, 4, 4}},
		{"sub063", [4]int{0, 3, 3, 10}},
		{"sub070", [4]int{0, 0, 0, 8}},
		{"sub077", [4]int{0, 0, 7, 12}},
		{"sub084", [4]int{0, 1, 4, 9}},
		{"sub091", [4]int{0, 0, 4, 9}},
		{"sub098", [4]int{0, 0, 0, 0}},
		{"sub105", [4]int{0, 3, 3, 12}},
		{"sub112", [4]int{0, 1, 5, 5}},
		{"sub119", [4]int{0, 0, 7, 7}},
		{"sub126", [4]int{0, 1, 6, 6}},
		{"sub133", [4]int{0, 2, 5, 5}},
		{"sub140", [4]int{0, 3, 3, 3}},
		{"sub147", [4]int{0, 1, 1, 1}},
		{"sub154", [4]int{0, 1, 5, 12}},
		{"sub161", [4]int{0, 0, 0, 10}},
		{"sub168", [4]int{0, 3, 4, 4}},
		{"sub175", [4]int{0, 1, 1, 15}},
		{"sub182", [4]int{0, 0, 7, 7}},
		{"sub189", [4]int{0, 0, 6, 12}},
		{"sub196", [4]int{0, 0, 0, 13}},
		{"sub203", [4]int{0, 1, 1, 1}},
	} {
		for j, n := range engines {
			if got := engineFor(tc.anchor, n); got != tc.want[j] {
				t.Errorf("engineFor(%q, %d) = %d, want %d", tc.anchor, n, got, tc.want[j])
			}
		}
	}
}

// TestEngineForStableAsFleetGrows is the rendezvous stability property over
// arbitrary anchors: dropping the last engine moves only its own anchors, and
// adding an engine moves anchors only onto the new engine.
func TestEngineForStableAsFleetGrows(t *testing.T) {
	const anchors = 200
	for n := 1; n < 16; n++ {
		moved := 0
		for i := 0; i < anchors; i++ {
			a := fmt.Sprintf("subtree%03d", i)
			before, after := engineFor(a, n), engineFor(a, n+1)
			if after != n && after != before {
				t.Fatalf("%d→%d engines moved %s from %d to %d, not to the new engine", n, n+1, a, before, after)
			}
			if before < 0 || before >= n {
				t.Fatalf("%s on engine %d with only %d engines", a, before, n)
			}
			if after != before {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("%d→%d engines moved no anchor of %d; rendezvous weights suspicious", n, n+1, anchors)
		}
	}
}

// TestEngineForJoinTakesBoundedShare: a new engine takes roughly its fair
// share of anchors, and only for itself.
func TestEngineForJoinTakesBoundedShare(t *testing.T) {
	const anchors = 400
	for n := 1; n < 16; n++ {
		moved := 0
		for i := 0; i < anchors; i++ {
			a := fmt.Sprintf("subtree%03d", i)
			before, after := engineFor(a, n), engineFor(a, n+1)
			if after == before {
				continue
			}
			if after != n {
				t.Fatalf("%d→%d engines moved %s from %d to %d, not to the new engine", n, n+1, a, before, after)
			}
			moved++
		}
		if fair := anchors / (n + 1); moved < fair/2 || moved > 2*fair {
			t.Errorf("%d→%d engines moved %d of %d anchors, want ≈%d", n, n+1, moved, anchors, fair)
		}
	}
}
