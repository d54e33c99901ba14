package buildgraph

import (
	"strings"
	"testing"

	"mastergreen/internal/repo"
)

// chainRepo builds a linear dependency chain t0 <- t1 <- ... <- t(n-1),
// one directory per target.
func chainRepo(n int) repo.Snapshot {
	files := map[string]string{}
	for i := 0; i < n; i++ {
		dir := dirName(i)
		decl := "target t srcs=t.go"
		if i > 0 {
			decl += " deps=//" + dirName(i-1) + ":t"
		}
		files[dir+"/BUILD"] = decl
		files[dir+"/t.go"] = "package t // " + dir
	}
	return repo.NewSnapshot(files)
}

func dirName(i int) string {
	return "d" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// diamondRepo: //top:t depends on //l:t and //r:t, both of which depend on
// //base:t; //side:t is unrelated.
func diamondRepo() repo.Snapshot {
	return repo.NewSnapshot(map[string]string{
		"base/BUILD": "target t srcs=t.go",
		"base/t.go":  "package base",
		"l/BUILD":    "target t srcs=t.go deps=//base:t",
		"l/t.go":     "package l",
		"r/BUILD":    "target t srcs=t.go deps=//base:t",
		"r/t.go":     "package r",
		"top/BUILD":  "target t srcs=t.go deps=//l:t,//r:t",
		"top/t.go":   "package top",
		"side/BUILD": "target t srcs=t.go",
		"side/t.go":  "package side",
	})
}

// patchSnap applies creates/modifies given as path->content (modify when the
// path already exists).
func patchSnap(t *testing.T, snap repo.Snapshot, files map[string]string) repo.Snapshot {
	t.Helper()
	var p repo.Patch
	for path, content := range files {
		fc := repo.FileChange{Path: path, NewContent: content}
		if cur, ok := snap.Read(path); ok {
			fc.Op = repo.OpModify
			fc.BaseHash = repo.HashContent(cur)
		} else {
			fc.Op = repo.OpCreate
		}
		p.Changes = append(p.Changes, fc)
	}
	next, err := snap.Apply(p)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return next
}

func mustAnalyze(t *testing.T, snap repo.Snapshot) *Graph {
	t.Helper()
	g, err := Analyze(snap)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return g
}

func hashesOf(g *Graph) map[string]string {
	out := make(map[string]string, g.Len())
	for _, n := range g.Names() {
		h, _ := g.Hash(n)
		out[n] = h
	}
	return out
}

// TestDeterministicHashes: the same snapshot yields identical hashes across
// repeated cold analyses and across serial vs parallel traversal.
func TestDeterministicHashes(t *testing.T) {
	snap := chainRepo(40)
	resetAnalyzeCache()
	want := hashesOf(mustAnalyze(t, snap))

	for run := 0; run < 3; run++ {
		resetAnalyzeCache()
		got := hashesOf(mustAnalyze(t, snap))
		for n, h := range want {
			if got[n] != h {
				t.Fatalf("run %d: hash of %s = %s, want %s", run, n, got[n], h)
			}
		}
	}

	old := hashWorkers
	hashWorkers = 1
	defer func() { hashWorkers = old }()
	resetAnalyzeCache()
	got := hashesOf(mustAnalyze(t, snap))
	for n, h := range want {
		if got[n] != h {
			t.Fatalf("serial traversal: hash of %s = %s, want %s", n, got[n], h)
		}
	}
}

// TestHashPropagation: editing one source changes the hashes of exactly the
// owning target and its transitive reverse dependencies.
func TestHashPropagation(t *testing.T) {
	resetAnalyzeCache()
	base := diamondRepo()
	g0 := mustAnalyze(t, base)

	patched := patchSnap(t, base, map[string]string{"l/t.go": "package l // edited"})
	g1 := mustAnalyze(t, patched)

	want := map[string]bool{"//l:t": true, "//top:t": true}
	h0, h1 := hashesOf(g0), hashesOf(g1)
	for n := range h0 {
		changed := h0[n] != h1[n]
		if changed != want[n] {
			t.Errorf("target %s: hash changed=%v, want %v", n, changed, want[n])
		}
	}
	if d := Diff(g0, g1); len(d) != 2 || d["//l:t"] == "" || d["//top:t"] == "" {
		t.Errorf("Diff = %v, want exactly {//l:t, //top:t}", d.Names())
	}
}

// TestIncrementalMatchesCold: incremental analysis after a patch produces the
// same hashes as a from-scratch analysis of the patched snapshot.
func TestIncrementalMatchesCold(t *testing.T) {
	base := chainRepo(30)
	resetAnalyzeCache()
	mustAnalyze(t, base) // prime the incremental base

	patched := patchSnap(t, base, map[string]string{
		"daf/t.go": "package t // v2",
		"zz/BUILD": "target t srcs=t.go deps=//dab:t",
		"zz/t.go":  "package zz",
	})
	inc := hashesOf(mustAnalyze(t, patched))

	resetAnalyzeCache()
	cold := hashesOf(mustAnalyze(t, patched))
	if len(inc) != len(cold) {
		t.Fatalf("incremental has %d targets, cold has %d", len(inc), len(cold))
	}
	for n, h := range cold {
		if inc[n] != h {
			t.Errorf("target %s: incremental %s != cold %s", n, inc[n], h)
		}
	}
}

// TestAnalyzeCacheHit: analyzing the same content twice returns the identical
// graph object, even via a different snapshot value.
func TestAnalyzeCacheHit(t *testing.T) {
	resetAnalyzeCache()
	snap := diamondRepo()
	g1 := mustAnalyze(t, snap)
	g2 := mustAnalyze(t, diamondRepo())
	if g1 != g2 {
		t.Error("same content should hit the analyze cache and share the graph")
	}
}

// TestCycleError: a dependency cycle is reported as an error, not a hang.
func TestCycleError(t *testing.T) {
	resetAnalyzeCache()
	snap := repo.NewSnapshot(map[string]string{
		"a/BUILD": "target t srcs=t.go deps=//b:t",
		"a/t.go":  "package a",
		"b/BUILD": "target t srcs=t.go deps=//a:t",
		"b/t.go":  "package b",
	})
	if _, err := Analyze(snap); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Analyze = %v, want cycle error", err)
	}
}

// TestMissingDepError: an unresolved dep label fails analysis.
func TestMissingDepError(t *testing.T) {
	resetAnalyzeCache()
	snap := repo.NewSnapshot(map[string]string{
		"a/BUILD": "target t srcs=t.go deps=//nope:gone",
		"a/t.go":  "package a",
	})
	if _, err := Analyze(snap); err == nil || !strings.Contains(err.Error(), "missing target") {
		t.Fatalf("Analyze = %v, want missing-target error", err)
	}
}

// TestSameStructure distinguishes content edits from structural edits.
func TestSameStructure(t *testing.T) {
	resetAnalyzeCache()
	base := diamondRepo()
	g0 := mustAnalyze(t, base)

	contentEdit := patchSnap(t, base, map[string]string{"base/t.go": "package base // v2"})
	g1 := mustAnalyze(t, contentEdit)
	if !SameStructure(g0, g1) {
		t.Error("content edit should preserve structure")
	}

	structEdit := patchSnap(t, base, map[string]string{"side/BUILD": "target t srcs=t.go deps=//top:t"})
	g2 := mustAnalyze(t, structEdit)
	if SameStructure(g0, g2) {
		t.Error("adding a dep edge should break structural equality")
	}
}
