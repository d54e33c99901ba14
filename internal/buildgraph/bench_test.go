package buildgraph

import (
	"fmt"
	"runtime"
	"testing"

	"mastergreen/internal/repo"
)

// benchRepo builds a synthetic repo with n targets in n directories. Each
// target depends on up to `fanin` earlier targets, giving a realistic DAG
// rather than a chain.
func benchRepo(n, fanin int) repo.Snapshot {
	files := make(map[string]string, 2*n)
	for i := 0; i < n; i++ {
		dir := fmt.Sprintf("pkg%04d", i)
		decl := "target t srcs=t.go"
		if i > 0 {
			deps := ""
			for j := 1; j <= fanin && i-j*7 >= 0; j++ {
				if deps != "" {
					deps += ","
				}
				deps += fmt.Sprintf("//pkg%04d:t", i-j*7)
			}
			if deps != "" {
				decl += " deps=" + deps
			}
		}
		files[dir+"/BUILD"] = decl
		files[dir+"/t.go"] = fmt.Sprintf("package pkg%04d\n\nfunc F() int { return %d }\n", i, i)
	}
	return repo.NewSnapshot(files)
}

func benchPatch(b *testing.B, snap repo.Snapshot, path, content string) repo.Snapshot {
	b.Helper()
	cur, ok := snap.Read(path)
	if !ok {
		b.Fatalf("missing %s", path)
	}
	next, err := snap.Apply(repo.Patch{Changes: []repo.FileChange{{
		Path: path, Op: repo.OpModify, BaseHash: repo.HashContent(cur), NewContent: content,
	}}})
	if err != nil {
		b.Fatalf("Apply: %v", err)
	}
	return next
}

// BenchmarkAnalyzeCold measures a from-scratch analysis (parse + DAG check +
// hash every target) of a 600-target repo.
func BenchmarkAnalyzeCold(b *testing.B) {
	snap := benchRepo(600, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := analyzeCold(snap)
		if err != nil {
			b.Fatal(err)
		}
		if g.Len() != 600 {
			b.Fatalf("got %d targets", g.Len())
		}
	}
}

// BenchmarkAnalyzeIncremental measures re-analysis after a one-file edit, on
// a 256-target and on a 4096-target repo: the content changes every
// iteration so each pass exercises the incremental path (not the content-ID
// cache). It is also the guard on the fast path's claim that such an edit
// costs its dirty targets, not the repo's — the bytes per analysis on the
// larger repo must stay within twice the smaller's (copying every hash, as
// the fast path once did, made them 16×).
func BenchmarkAnalyzeIncremental(b *testing.B) {
	var bytesPerOp [2]float64
	for k, targets := range []int{256, 4096} {
		b.Run(fmt.Sprintf("targets=%d", targets), func(b *testing.B) {
			base := benchRepo(targets, 3)
			resetAnalyzeCache()
			if _, err := Analyze(base); err != nil {
				b.Fatal(err)
			}
			path := fmt.Sprintf("pkg%04d/t.go", targets-1) // nothing depends on the last package
			snaps := make([]repo.Snapshot, b.N)
			for i := range snaps {
				snaps[i] = benchPatch(b, base, path, fmt.Sprintf("package p // rev %d", i))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for _, snap := range snaps {
				if _, err := Analyze(snap); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			bytesPerOp[k] = float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
		})
	}
	if small, large := bytesPerOp[0], bytesPerOp[1]; small > 0 && large > 2*small+1024 {
		b.Fatalf("incremental analysis allocates %.0f B/op on 4096 targets, %.0f B/op on 256: it scales with the repository", large, small)
	}
}
