package repo

import (
	"encoding/json"
	"fmt"
	"io"
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
	Message string       `json:"message"`
	Author  string       `json:"author"`
	Time    time.Time    `json:"time"`
	Patch   []FileChange `json:"patch"`
	ID      CommitID     `json:"id"` // for integrity verification on load
}

// Save serializes the repository — initial tree plus the patch of every
// mainline commit — as JSON. This is the durable form the paper keeps in
// MySQL; here it is a single document suitable for a file.
func (r *Repo) Save(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	root := r.commits[r.order[0]]
	out := serializedRepo{Version: 2, Initial: map[string]string{}}
	root.snapshot.Range(func(p, c string) bool {
		out.Initial[p] = c
		return true
	})
	for i := 1; i < len(r.order); i++ {
		c := r.commits[r.order[i]]
		parent := r.commits[c.Parent]
		patch := parent.snapshot.DiffPatch(c.snapshot)
		out.Commits = append(out.Commits, serializedCommit{
			Message: c.Message, Author: c.Author, Time: c.Time, Patch: patch.Changes, ID: c.ID,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load reconstructs a repository saved with Save, replaying every commit and
// verifying that the regenerated commit IDs match the persisted ones (the
// integrity check the paper gets from transactional storage).
func Load(rd io.Reader) (*Repo, error) {
	var in serializedRepo
	if err := json.NewDecoder(rd).Decode(&in); err != nil {
		return nil, fmt.Errorf("repo: decode: %w", err)
	}
	if in.Version != 2 {
		return nil, fmt.Errorf("repo: unsupported version %d", in.Version)
	}
	r := New(in.Initial)
	for i, sc := range in.Commits {
		c, err := r.CommitPatch(r.Head().ID, Patch{Changes: sc.Patch}, sc.Author, sc.Message, sc.Time)
		if err != nil {
			return nil, fmt.Errorf("repo: replaying commit %d: %w", i+1, err)
		}
		if sc.ID != "" && c.ID != sc.ID {
			return nil, fmt.Errorf("repo: integrity failure at commit %d: id %s, persisted %s", i+1, c.ID, sc.ID)
		}
	}
	return r, nil
}
