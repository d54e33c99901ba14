package repo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// serialized wire formats. Commit IDs are deterministic functions of
// (parent, message, sequence), so a faithful replay reproduces identical
// IDs and the persisted form only needs the initial tree plus per-commit
// patches.
type serializedRepo struct {
	Version int                `json:"version"`
	Initial map[string]string  `json:"initial"`
	Commits []serializedCommit `json:"commits"`
}

type serializedCommit struct {
	Message string             `json:"message"`
	Author  string             `json:"author"`
	Time    time.Time          `json:"time"`
	Patch   []serializedChange `json:"patch"`
	ID      CommitID           `json:"id"` // for integrity verification on load
}

type serializedChange struct {
	Path       string `json:"path"`
	Op         string `json:"op"`
	BaseHash   string `json:"base_hash,omitempty"`
	NewContent string `json:"content,omitempty"`
}

func opToString(op FileOp) string { return op.String() }

func opFromString(s string) (FileOp, error) {
	switch s {
	case "create":
		return OpCreate, nil
	case "modify":
		return OpModify, nil
	case "delete":
		return OpDelete, nil
	default:
		return 0, fmt.Errorf("repo: unknown op %q", s)
	}
}

// Save serializes the repository — initial tree plus the patch of every
// mainline commit — as JSON. This is the durable form the paper keeps in
// MySQL; here it is a single document suitable for a file.
func (r *Repo) Save(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	root := r.commits[r.order[0]]
	out := serializedRepo{Version: 1, Initial: map[string]string{}}
	for _, p := range root.snapshot.Paths() {
		c, _ := root.snapshot.Read(p)
		out.Initial[p] = c
	}
	for i := 1; i < len(r.order); i++ {
		c := r.commits[r.order[i]]
		parent := r.commits[c.Parent]
		patch := parent.snapshot.DiffPatch(c.snapshot)
		sc := serializedCommit{Message: c.Message, Author: c.Author, Time: c.Time, ID: c.ID}
		for _, fc := range patch.Changes {
			sc.Patch = append(sc.Patch, serializedChange{
				Path: fc.Path, Op: opToString(fc.Op), BaseHash: fc.BaseHash, NewContent: fc.NewContent,
			})
		}
		out.Commits = append(out.Commits, sc)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// SaveFile writes the repository to path with Save, atomically: a crash or a
// failed write at any point leaves either the previous file or the new one
// at path, never a truncated mix.
func (r *Repo) SaveFile(path string) error {
	return writeFileAtomic(path, r.Save)
}

// writeFileAtomic writes a temporary file beside path, fsyncs and closes it,
// renames it over path and fsyncs the directory, so the rename itself is
// durable. On error the temporary file is removed and path is untouched.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("repo: save %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			_ = f.Close()
			_ = os.Remove(f.Name())
			err = fmt.Errorf("repo: save %s: %w", path, err)
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err = d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

// Load reconstructs a repository saved with Save, replaying every commit and
// verifying that the regenerated commit IDs match the persisted ones (the
// integrity check the paper gets from transactional storage).
func Load(rd io.Reader) (*Repo, error) {
	var in serializedRepo
	if err := json.NewDecoder(rd).Decode(&in); err != nil {
		return nil, fmt.Errorf("repo: decode: %w", err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("repo: unsupported version %d", in.Version)
	}
	r := New(in.Initial)
	for i, sc := range in.Commits {
		var patch Patch
		for _, fc := range sc.Patch {
			op, err := opFromString(fc.Op)
			if err != nil {
				return nil, err
			}
			patch.Changes = append(patch.Changes, FileChange{
				Path: fc.Path, Op: op, BaseHash: fc.BaseHash, NewContent: fc.NewContent,
			})
		}
		c, err := r.CommitPatch(r.Head().ID, patch, sc.Author, sc.Message, sc.Time)
		if err != nil {
			return nil, fmt.Errorf("repo: replaying commit %d: %w", i+1, err)
		}
		if sc.ID != "" && c.ID != sc.ID {
			return nil, fmt.Errorf("repo: integrity failure at commit %d: id %s, persisted %s", i+1, c.ID, sc.ID)
		}
	}
	return r, nil
}
