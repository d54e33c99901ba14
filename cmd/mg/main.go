// Command mg is the developer's window into a mastergreen monorepo: a small
// VCS + build-graph tool over the repo/buildgraph substrates (the part of
// the stack a developer at the paper's company would touch through git and
// Buck). It operates on a repository file saved with repo.Save.
//
//	mg init    -dir ./src -o repo.json           # import a directory tree
//	mg log     -repo repo.json                   # mainline history
//	mg show    -repo repo.json -seq 2            # one commit's files
//	mg cat     -repo repo.json -path lib/a.go    # file at HEAD (or -seq N)
//	mg commit  -repo repo.json -m msg -edit path=content [-edit ...]
//	mg revert  -repo repo.json -id <commit-id>
//	mg targets -repo repo.json                   # build targets at HEAD
//	mg deps    -repo repo.json -t //a:b          # transitive dependencies
//	mg rdeps   -repo repo.json -t //a:b          # transitive dependents
//	mg affected -repo repo.json -from 1 -to 2    # δ between commit points
//	mg dot     -repo repo.json                   # Graphviz of the target DAG
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mastergreen/internal/buildgraph"
	"mastergreen/internal/repo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mg: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "init":
		cmdInit(args)
	case "log":
		cmdLog(args)
	case "show":
		cmdShow(args)
	case "cat":
		cmdCat(args)
	case "commit":
		cmdCommit(args)
	case "revert":
		cmdRevert(args)
	case "targets":
		cmdTargets(args)
	case "deps":
		cmdDeps(args, false)
	case "rdeps":
		cmdDeps(args, true)
	case "affected":
		cmdAffected(args)
	case "dot":
		cmdDot(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mg init|log|show|cat|commit|revert|targets|deps|rdeps|affected|dot [flags]")
	os.Exit(2)
}

// loadRepo reads the repository file.
func loadRepo(path string) *repo.Repo {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("open repo: %v", err)
	}
	defer f.Close()
	r, err := repo.Load(f)
	if err != nil {
		log.Fatalf("load repo: %v", err)
	}
	return r
}

// saveRepo writes the repository file atomically.
func saveRepo(r *repo.Repo, path string) {
	if err := writeFileAtomic(path, r.Save); err != nil {
		log.Fatalf("save repo: %v", err)
	}
}

// writeFileAtomic writes a temporary file beside path, fsyncs it, renames it
// over path and fsyncs the directory: a crash or a failed write at any point
// leaves either the previous file or the new one at path, never a truncated
// mix, and no temporary file behind.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("save %s: %w", path, err)
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(f.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // the save's own error is the one to report
		return fmt.Errorf("save %s: %w", path, err)
	}
	d, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	return err
}

func cmdInit(args []string) {
	fs2 := flag.NewFlagSet("init", flag.ExitOnError)
	dir := fs2.String("dir", "", "directory tree to import as the root commit")
	out := fs2.String("o", "repo.json", "repository file to create")
	_ = fs2.Parse(args)
	files := map[string]string{}
	if *dir != "" {
		err := filepath.WalkDir(*dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(*dir, p)
			if err != nil {
				return err
			}
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			files[filepath.ToSlash(rel)] = string(data)
			return nil
		})
		if err != nil {
			log.Fatalf("walking %s: %v", *dir, err)
		}
	}
	r := repo.New(files)
	saveRepo(r, *out)
	fmt.Printf("initialized %s with %d files\n", *out, len(files))
}

func cmdLog(args []string) {
	fs2 := flag.NewFlagSet("log", flag.ExitOnError)
	repoPath := fs2.String("repo", "repo.json", "repository file")
	_ = fs2.Parse(args)
	r := loadRepo(*repoPath)
	for i := r.Len() - 1; i >= 0; i-- {
		c, err := r.At(i)
		if err != nil {
			log.Fatal(err)
		}
		msg := c.Message
		if msg == "" {
			msg = "(root)"
		}
		fmt.Printf("%3d  %s  %-10s %s\n", c.Seq, c.ID, c.Author, msg)
	}
}

func cmdShow(args []string) {
	fs2 := flag.NewFlagSet("show", flag.ExitOnError)
	repoPath := fs2.String("repo", "repo.json", "repository file")
	seq := fs2.Int("seq", -1, "mainline position (-1 = HEAD)")
	_ = fs2.Parse(args)
	r := loadRepo(*repoPath)
	c := headOrAt(r, *seq)
	fmt.Printf("commit %s (seq %d) by %s: %s\n", c.ID, c.Seq, c.Author, c.Message)
	for _, p := range c.Snapshot().Paths() {
		content, _ := c.Snapshot().Read(p)
		fmt.Printf("  %-30s %4d bytes\n", p, len(content))
	}
}

func headOrAt(r *repo.Repo, seq int) *repo.Commit {
	if seq < 0 {
		return r.Head()
	}
	c, err := r.At(seq)
	if err != nil {
		log.Fatal(err)
	}
	return c
}

func cmdCat(args []string) {
	fs2 := flag.NewFlagSet("cat", flag.ExitOnError)
	repoPath := fs2.String("repo", "repo.json", "repository file")
	path := fs2.String("path", "", "file path")
	seq := fs2.Int("seq", -1, "mainline position (-1 = HEAD)")
	_ = fs2.Parse(args)
	if *path == "" {
		log.Fatal("cat: -path required")
	}
	r := loadRepo(*repoPath)
	c := headOrAt(r, *seq)
	content, ok := c.Snapshot().Read(*path)
	if !ok {
		log.Fatalf("cat: %s not found at seq %d", *path, c.Seq)
	}
	fmt.Print(content)
	if !strings.HasSuffix(content, "\n") {
		fmt.Println()
	}
}

// editFlags collects repeated -edit path=content pairs.
type editFlags []string

func (e *editFlags) String() string     { return strings.Join(*e, ",") }
func (e *editFlags) Set(v string) error { *e = append(*e, v); return nil }

func cmdCommit(args []string) {
	fs2 := flag.NewFlagSet("commit", flag.ExitOnError)
	repoPath := fs2.String("repo", "repo.json", "repository file")
	msg := fs2.String("m", "", "commit message")
	author := fs2.String("author", "mg", "author")
	var edits editFlags
	fs2.Var(&edits, "edit", "path=content (repeatable); empty content deletes")
	_ = fs2.Parse(args)
	if len(edits) == 0 {
		log.Fatal("commit: at least one -edit required")
	}
	r := loadRepo(*repoPath)
	head := r.Head()
	var patch repo.Patch
	for _, e := range edits {
		eq := strings.IndexByte(e, '=')
		if eq < 0 {
			log.Fatalf("commit: bad -edit %q (want path=content)", e)
		}
		path, content := e[:eq], e[eq+1:]
		cur, exists := head.Snapshot().Read(path)
		switch {
		case content == "" && exists:
			patch.Changes = append(patch.Changes, repo.FileChange{
				Path: path, Op: repo.OpDelete, BaseHash: repo.HashContent(cur),
			})
		case exists:
			patch.Changes = append(patch.Changes, repo.FileChange{
				Path: path, Op: repo.OpModify, BaseHash: repo.HashContent(cur), NewContent: content,
			})
		default:
			patch.Changes = append(patch.Changes, repo.FileChange{
				Path: path, Op: repo.OpCreate, NewContent: content,
			})
		}
	}
	c, err := r.CommitPatch(head.ID, patch, *author, *msg, time.Now())
	if err != nil {
		log.Fatalf("commit: %v", err)
	}
	// Keep the build graph valid: a commit that breaks BUILD parsing is
	// rejected, mirroring SubmitQueue's compile gate.
	if _, err := buildgraph.Analyze(c.Snapshot()); err != nil {
		log.Fatalf("commit landed but the build graph is now invalid: %v\n(use mg revert %s)", err, c.ID)
	}
	saveRepo(r, *repoPath)
	fmt.Printf("committed %s (seq %d)\n", c.ID, c.Seq)
}

func cmdRevert(args []string) {
	fs2 := flag.NewFlagSet("revert", flag.ExitOnError)
	repoPath := fs2.String("repo", "repo.json", "repository file")
	id := fs2.String("id", "", "commit id to revert")
	author := fs2.String("author", "mg", "author")
	_ = fs2.Parse(args)
	if *id == "" {
		log.Fatal("revert: -id required")
	}
	r := loadRepo(*repoPath)
	c, err := r.Revert(repo.CommitID(*id), *author, time.Now())
	if err != nil {
		log.Fatalf("revert: %v", err)
	}
	saveRepo(r, *repoPath)
	fmt.Printf("reverted as %s (seq %d)\n", c.ID, c.Seq)
}

func analyzeHead(repoPath string, seq int) *buildgraph.Graph {
	r := loadRepo(repoPath)
	c := headOrAt(r, seq)
	g, err := buildgraph.Analyze(c.Snapshot())
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}
	return g
}

func cmdTargets(args []string) {
	fs2 := flag.NewFlagSet("targets", flag.ExitOnError)
	repoPath := fs2.String("repo", "repo.json", "repository file")
	seq := fs2.Int("seq", -1, "mainline position (-1 = HEAD)")
	_ = fs2.Parse(args)
	g := analyzeHead(*repoPath, *seq)
	for _, name := range g.Names() {
		h, _ := g.Hash(name)
		t, _ := g.Target(name)
		fmt.Printf("%-30s %s  srcs=%d deps=%d\n", name, h, len(t.Srcs), len(t.Deps))
	}
}

func cmdDeps(args []string, reverse bool) {
	name := "deps"
	if reverse {
		name = "rdeps"
	}
	fs2 := flag.NewFlagSet(name, flag.ExitOnError)
	repoPath := fs2.String("repo", "repo.json", "repository file")
	target := fs2.String("t", "", "target name (//dir:name)")
	seq := fs2.Int("seq", -1, "mainline position (-1 = HEAD)")
	_ = fs2.Parse(args)
	if *target == "" {
		log.Fatalf("%s: -t required", name)
	}
	g := analyzeHead(*repoPath, *seq)
	if _, ok := g.Target(*target); !ok {
		log.Fatalf("%s: unknown target %s", name, *target)
	}
	var set map[string]bool
	if reverse {
		set = g.Dependents(*target)
	} else {
		set = g.DependencyClosure(*target)
	}
	var names []string
	for n := range set {
		if n != *target {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Println(n)
	}
}

func cmdAffected(args []string) {
	fs2 := flag.NewFlagSet("affected", flag.ExitOnError)
	repoPath := fs2.String("repo", "repo.json", "repository file")
	from := fs2.Int("from", 0, "base mainline position")
	to := fs2.Int("to", -1, "changed mainline position (-1 = HEAD)")
	_ = fs2.Parse(args)
	r := loadRepo(*repoPath)
	base := headOrAt(r, *from)
	changed := headOrAt(r, *to)
	gBase, err := buildgraph.Analyze(base.Snapshot())
	if err != nil {
		log.Fatalf("affected: base: %v", err)
	}
	gChanged, err := buildgraph.Analyze(changed.Snapshot())
	if err != nil {
		log.Fatalf("affected: changed: %v", err)
	}
	delta := buildgraph.Diff(gBase, gChanged)
	for _, n := range delta.Names() {
		fmt.Printf("%-30s %s\n", n, delta[n])
	}
	if len(delta) == 0 {
		fmt.Println("(no affected targets)")
	}
}

func cmdDot(args []string) {
	fs2 := flag.NewFlagSet("dot", flag.ExitOnError)
	repoPath := fs2.String("repo", "repo.json", "repository file")
	seq := fs2.Int("seq", -1, "mainline position (-1 = HEAD)")
	_ = fs2.Parse(args)
	fmt.Print(analyzeHead(*repoPath, *seq).Dot())
}
