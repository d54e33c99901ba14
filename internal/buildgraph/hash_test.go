package buildgraph

import (
	"strings"
	"testing"

	"mastergreen/internal/repo"
)

// goldenFiles is a fixed multi-target graph: a dependency chain, a diamond,
// multi-source targets, a declared-but-missing source and a large source, so
// every part of hashTarget's byte stream is exercised.
var goldenFiles = map[string]string{
	"base/BUILD":   "target base srcs=a.go,b.go",
	"base/a.go":    "package base\n",
	"base/b.go":    "",
	"util/BUILD":   "target util srcs=u.go,gone.go deps=//base:base",
	"util/u.go":    "package util // uses base\n",
	"io/BUILD":     "target io srcs=io.go deps=//base:base\ntarget big srcs=big.go",
	"io/io.go":     "package io\n",
	"io/big.go":    strings.Repeat("0123456789abcdef", 4096),
	"app/BUILD":    "target app srcs=main.go deps=//util:util,//io:io,//io:big",
	"app/main.go":  "package main\n\nfunc main() {}\n",
	"tools/BUILD":  "target lint deps=//app:app,//base:base",
	"empty/BUILD":  "target none",
	"empty/x.data": "not a source",
}

// goldenHashes pin the Algorithm 1 hashes of goldenFiles. Any change to
// hashTarget's byte stream changes them, and with them every artifact-cache
// key and build decision that depends on a target hash.
var goldenHashes = map[string]string{
	"//app:app":    "d69ff24e27ffbc779b0f5718281aabfc",
	"//base:base":  "21506dd4fd2057acf5ebec7d2e0bb363",
	"//empty:none": "978d534c45b859018b9540287662429d",
	"//io:big":     "9d811854d42d76f47a2e36d34bddaee2",
	"//io:io":      "9b277132e948ba3b1d0f7277638d4a07",
	"//tools:lint": "6d80b2a2a5b27ba7a72e666cc87e622e",
	"//util:util":  "f6ef919afd34ba1c979c7e6c776d98b9",
}

func TestHashTargetGolden(t *testing.T) {
	resetAnalyzeCache()
	g, err := Analyze(repo.NewSnapshot(goldenFiles))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != len(goldenHashes) {
		t.Fatalf("graph has %d targets, want %d", g.Len(), len(goldenHashes))
	}
	for name, want := range goldenHashes {
		if got, _ := g.Hash(name); got != want {
			t.Errorf("%s: hash %s, want %s", name, got, want)
		}
	}
}

// TestHashTargetAllocs pins hashTarget's copy-free byte stream: once its
// buffer has grown, hashing a target allocates only the returned hex string.
func TestHashTargetAllocs(t *testing.T) {
	snap := repo.NewSnapshot(goldenFiles)
	target := &Target{Name: "//app:app", Srcs: []string{"app/main.go", "io/big.go", "app/gone.go"}, Deps: []string{"//io:io", "//util:util"}}
	depHash := func(d string) string { return goldenHashes[d] }
	var buf []byte
	hashTarget(&buf, target, snap, depHash)
	if allocs := testing.AllocsPerRun(50, func() { hashTarget(&buf, target, snap, depHash) }); allocs > 1 {
		t.Errorf("a warmed hashTarget allocates %v times, want at most 1", allocs)
	}
}
