// Package repo implements the monorepo substrate SubmitQueue manages: an
// in-memory, content-addressed, versioned file store with a single mainline
// branch, atomic patch application, and git-style "expected base" merge
// conflict detection.
//
// The paper's SubmitQueue sits in front of a giant git monorepo; the only
// repository operations it needs are (1) read the snapshot at HEAD, (2) apply
// a change's patch on top of an arbitrary snapshot, and (3) advance HEAD by
// one commit if and only if HEAD has not moved (serializability). This
// package provides exactly those, with full history so any commit point can
// be checked out (the paper's "roll back to any previously committed
// change").
package repo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors returned by patch application and commit.
var (
	// ErrMergeConflict is returned when a patch edits or deletes a file whose
	// content at the base snapshot differs from the content the patch was
	// authored against.
	ErrMergeConflict = errors.New("repo: merge conflict")
	// ErrStaleHead is returned by CommitPatch when HEAD moved since the
	// caller observed it.
	ErrStaleHead = errors.New("repo: stale head")
	// ErrNoSuchCommit is returned for unknown commit IDs.
	ErrNoSuchCommit = errors.New("repo: no such commit")
	// ErrNoSuchFile is returned when a patch modifies or deletes a file that
	// does not exist at the base snapshot.
	ErrNoSuchFile = errors.New("repo: no such file")
	// ErrFileExists is returned when a patch creates a file that already
	// exists at the base snapshot.
	ErrFileExists = errors.New("repo: file exists")
)

// HashContent returns the content hash used for merge-base checks.
func HashContent(content string) string {
	sum := sha256.Sum256([]byte(content))
	return hex.EncodeToString(sum[:8])
}

// FileOp is the kind of edit a FileChange performs.
type FileOp int

// File operations.
const (
	OpCreate FileOp = iota
	OpModify
	OpDelete
)

// String implements fmt.Stringer.
func (op FileOp) String() string {
	switch op {
	case OpCreate:
		return "create"
	case OpModify:
		return "modify"
	case OpDelete:
		return "delete"
	case OpEditLines:
		return "edit-lines"
	default:
		return fmt.Sprintf("FileOp(%d)", int(op))
	}
}

// FileChange is a single-file edit within a Patch. For OpModify and OpDelete,
// BaseHash must equal the hash of the file's content at the snapshot the
// patch is applied to; a mismatch is a merge conflict, mirroring git's
// three-way merge failing when both sides touched the same file. OpEditLines
// edits a line range instead (see lines.go): disjoint line edits to the same
// file merge rather than conflicting. Its JSON form is the one durable patch
// encoding (Save and the service journal).
type FileChange struct {
	Path       string `json:"path"`
	Op         FileOp `json:"op"`
	BaseHash   string `json:"base_hash,omitempty"` // required for OpModify, OpDelete
	NewContent string `json:"content,omitempty"`   // used for OpCreate, OpModify

	// Line-edit fields (OpEditLines only). StartLine is 1-based.
	StartLine int      `json:"start_line,omitempty"`
	OldLines  []string `json:"old_lines,omitempty"`
	NewLines  []string `json:"new_lines,omitempty"`
}

// Patch is an atomic set of file edits, all of which must apply cleanly.
// Its JSON form is the array of its file changes.
type Patch struct {
	Changes []FileChange
}

// MarshalJSON encodes the patch as the array of its file changes.
func (p Patch) MarshalJSON() ([]byte, error) { return json.Marshal(p.Changes) }

// UnmarshalJSON decodes an array of file changes.
func (p *Patch) UnmarshalJSON(b []byte) error { return json.Unmarshal(b, &p.Changes) }

// Paths returns the sorted set of file paths the patch touches.
func (p Patch) Paths() []string {
	seen := make(map[string]bool, len(p.Changes))
	var out []string
	for _, fc := range p.Changes {
		if !seen[fc.Path] {
			seen[fc.Path] = true
			out = append(out, fc.Path)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot is an immutable view of the repository tree: path -> content.
// The zero Snapshot is the empty tree.
//
// Representation: a persistent hash trie (trie.go). Apply copies only the
// root-to-leaf path of each file a patch touches and shares every other node
// with the snapshot it started from, so a commit retains O(patch · depth)
// nodes, depth ≈ log₃₂(tree), however long the history grows; and
// ChangedPaths between two snapshots of one history never enters the
// subtrees they share.
type Snapshot struct {
	root *node // nil for the empty tree
	n    int   // live file count
	fp   snapFP
}

// snapFP is an order-independent fingerprint of the full tree: the sum of
// per-file hashes over two 64-bit lanes. Addition is commutative, so Apply
// can maintain it incrementally in O(patch) instead of rehashing the tree.
type snapFP struct {
	a, b uint64
}

// fileFP hashes one (path, content) pair into the two fingerprint lanes.
func fileFP(path, content string) snapFP {
	h := sha256.New()
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write([]byte(content))
	sum := h.Sum(nil)
	return snapFP{
		a: binary.BigEndian.Uint64(sum[0:8]),
		b: binary.BigEndian.Uint64(sum[8:16]),
	}
}

func (fp snapFP) add(f snapFP) snapFP    { return snapFP{fp.a + f.a, fp.b + f.b} }
func (fp snapFP) remove(f snapFP) snapFP { return snapFP{fp.a - f.a, fp.b - f.b} }

// NewSnapshot builds a snapshot from a path->content map (copied).
func NewSnapshot(files map[string]string) Snapshot {
	var s Snapshot
	for k, v := range files {
		s.root = s.root.with(0, pathHash(k), k, v)
		s.fp = s.fp.add(fileFP(k, v))
	}
	s.n = len(files)
	return s
}

// ContentID returns a fingerprint of the snapshot's full tree: two snapshots
// with identical path->content maps have identical IDs regardless of how
// they were produced. It is maintained incrementally by Apply, so reading it
// is O(1); consumers (e.g. the build-graph analyze cache) use it as a
// content-addressed cache key.
func (s Snapshot) ContentID() string {
	return fmt.Sprintf("%016x%016x-%d", s.fp.a, s.fp.b, s.n)
}

// Range calls f for every (path, content) pair in unspecified order,
// stopping early if f returns false. It avoids the sort and slice allocation
// of Paths for callers that only need to visit the tree.
func (s Snapshot) Range(f func(path, content string) bool) {
	s.root.leaves(func(l *node) bool {
		for _, x := range l.files {
			if !f(x.path, x.content) {
				return false
			}
		}
		return true
	})
}

// Read returns the content of path and whether it exists.
func (s Snapshot) Read(path string) (string, bool) {
	return s.root.get(0, pathHash(path), path)
}

// Len returns the number of files in the snapshot.
func (s Snapshot) Len() int { return s.n }

// Paths returns all file paths in sorted order.
func (s Snapshot) Paths() []string {
	out := make([]string, 0, s.n)
	s.Range(func(p, _ string) bool {
		out = append(out, p)
		return true
	})
	sort.Strings(out)
	return out
}

// PathsUnder returns sorted paths with the given directory prefix
// (e.g. "app/rider/"). An empty prefix returns all paths.
func (s Snapshot) PathsUnder(prefix string) []string {
	var out []string
	s.Range(func(p, _ string) bool {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// Apply produces a new snapshot with the patch applied, or an error
// describing the first conflict encountered. The receiver is unchanged.
// Cost is O(patch · depth): each change copies one root-to-leaf path.
func (s Snapshot) Apply(p Patch) (Snapshot, error) {
	next := s
	for _, fc := range p.Changes {
		h := pathHash(fc.Path)
		cur, exists := next.root.get(0, h, fc.Path)
		content, deleted, err := applyChange(fc, cur, exists)
		if err != nil {
			return Snapshot{}, err
		}
		if exists {
			next.n--
			next.fp = next.fp.remove(fileFP(fc.Path, cur))
		}
		if deleted {
			next.root = next.root.without(0, h, fc.Path)
			continue
		}
		next.root = next.root.with(0, h, fc.Path, content)
		next.n++
		next.fp = next.fp.add(fileFP(fc.Path, content))
	}
	return next, nil
}

// applyChange checks fc against its file's current state (cur, exists) and
// returns the file's new content, or deleted when fc removes it.
func applyChange(fc FileChange, cur string, exists bool) (content string, deleted bool, err error) {
	switch fc.Op {
	case OpCreate:
		if exists {
			return "", false, fmt.Errorf("%w: create %s", ErrFileExists, fc.Path)
		}
		return fc.NewContent, false, nil
	case OpModify, OpDelete:
		if !exists {
			return "", false, fmt.Errorf("%w: %s %s", ErrNoSuchFile, fc.Op, fc.Path)
		}
		if HashContent(cur) != fc.BaseHash {
			return "", false, fmt.Errorf("%w: %s changed since patch base", ErrMergeConflict, fc.Path)
		}
		return fc.NewContent, fc.Op == OpDelete, nil
	case OpEditLines:
		if !exists {
			return "", false, fmt.Errorf("%w: edit %s", ErrNoSuchFile, fc.Path)
		}
		content, err = applyEditLines(cur, fc)
		return content, false, err
	}
	return "", false, fmt.Errorf("repo: unknown op %v for %s", fc.Op, fc.Path)
}

// Check reports whether the patches would apply cleanly to the snapshot in
// order, returning exactly the error Merged would, without materializing the
// merged tree: it walks only the patches, with an overlay for intra-sequence
// effects, and allocates no trie nodes, so the sharded planner can
// re-validate every pending change's applicability against the live head
// each epoch.
func (s Snapshot) Check(patches ...Patch) error {
	type overlayState struct {
		content string
		deleted bool
	}
	var overlay map[string]overlayState
	for i, p := range patches {
		for _, fc := range p.Changes {
			var cur string
			var exists bool
			if st, ok := overlay[fc.Path]; ok {
				cur, exists = st.content, !st.deleted
			} else {
				cur, exists = s.Read(fc.Path)
			}
			content, deleted, err := applyChange(fc, cur, exists)
			if err != nil {
				return fmt.Errorf("applying patch %d: %w", i, err)
			}
			if overlay == nil {
				overlay = map[string]overlayState{}
			}
			overlay[fc.Path] = overlayState{content, deleted}
		}
	}
	return nil
}

// ChangedPaths returns the sorted set of paths whose content differs between
// the two snapshots (added, removed, or modified in either direction). The
// conflict analyzer's selective invalidation uses it to decide whether a head
// movement can affect a cached patch's applicability.
//
// Subtrees the two tries share are skipped, so for two snapshots of one
// history the cost is O(edits between them · depth) rather than O(tree).
// Identical fingerprints short-circuit to nil.
func (s Snapshot) ChangedPaths(other Snapshot) []string {
	if s.fp == other.fp && s.n == other.n {
		return nil
	}
	out := diff(s.root, other.root, 0, nil)
	sort.Strings(out)
	return out
}

// DiffPatch builds the patch that transforms s into other, sorted by path.
// It costs what ChangedPaths costs, so saving a history is O(patch) per
// commit.
func (s Snapshot) DiffPatch(other Snapshot) Patch {
	var p Patch
	for _, path := range s.ChangedPaths(other) {
		oldC, had := s.Read(path)
		newC, has := other.Read(path)
		switch {
		case !had:
			p.Changes = append(p.Changes, FileChange{Path: path, Op: OpCreate, NewContent: newC})
		case !has:
			p.Changes = append(p.Changes, FileChange{Path: path, Op: OpDelete, BaseHash: HashContent(oldC)})
		default:
			p.Changes = append(p.Changes, FileChange{Path: path, Op: OpModify, BaseHash: HashContent(oldC), NewContent: newC})
		}
	}
	return p
}

// CommitID identifies a commit.
type CommitID string

// Commit is one point in mainline history.
type Commit struct {
	ID       CommitID
	Parent   CommitID // empty for the root commit
	Message  string
	Author   string
	Time     time.Time
	Seq      int // 0-based position in mainline history
	snapshot Snapshot
}

// Snapshot returns the full repository tree at this commit.
func (c *Commit) Snapshot() Snapshot { return c.snapshot }

// Repo is a single-branch (mainline/trunk) repository with linear history.
// All methods are safe for concurrent use.
type Repo struct {
	mu      sync.RWMutex
	commits map[CommitID]*Commit
	order   []CommitID // mainline history, oldest first
	nextSeq int
}

// New creates a repository whose root commit contains the given files.
func New(initial map[string]string) *Repo {
	r := &Repo{commits: make(map[CommitID]*Commit)}
	root := &Commit{
		ID:       r.makeID("", "root"),
		Message:  "root",
		Author:   "system",
		Seq:      0,
		snapshot: NewSnapshot(initial),
	}
	r.commits[root.ID] = root
	r.order = []CommitID{root.ID}
	r.nextSeq = 1
	return r
}

func (r *Repo) makeID(parent CommitID, msg string) CommitID {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d", parent, msg, r.nextSeq)))
	return CommitID(hex.EncodeToString(sum[:10]))
}

// Head returns the current mainline HEAD commit.
func (r *Repo) Head() *Commit {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.commits[r.order[len(r.order)-1]]
}

// Lookup returns the commit with the given ID.
func (r *Repo) Lookup(id CommitID) (*Commit, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.commits[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchCommit, id)
	}
	return c, nil
}

// At returns the commit at mainline position seq (0 = root).
func (r *Repo) At(seq int) (*Commit, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if seq < 0 || seq >= len(r.order) {
		return nil, fmt.Errorf("%w: seq %d", ErrNoSuchCommit, seq)
	}
	return r.commits[r.order[seq]], nil
}

// Len returns the number of commits in mainline history.
func (r *Repo) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}

// History returns mainline commit IDs, oldest first. The slice is a copy.
func (r *Repo) History() []CommitID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]CommitID(nil), r.order...)
}

// CommitPatch atomically applies patch on top of expectedHead and advances
// HEAD. It fails with ErrStaleHead if HEAD is no longer expectedHead, and
// with a patch-application error if the patch does not apply cleanly. This
// compare-and-swap is what gives SubmitQueue its serializability guarantee.
func (r *Repo) CommitPatch(expectedHead CommitID, patch Patch, author, message string, when time.Time) (*Commit, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	head := r.order[len(r.order)-1]
	if head != expectedHead {
		return nil, fmt.Errorf("%w: head is %s, expected %s", ErrStaleHead, head, expectedHead)
	}
	snap, err := r.commits[head].snapshot.Apply(patch)
	if err != nil {
		return nil, err
	}
	c := &Commit{
		ID:       r.makeID(head, message),
		Parent:   head,
		Message:  message,
		Author:   author,
		Time:     when,
		Seq:      r.nextSeq,
		snapshot: snap,
	}
	r.commits[c.ID] = c
	r.order = append(r.order, c.ID)
	r.nextSeq++
	return c, nil
}

// Merged returns the snapshot of base's commit with the given patches applied
// in order, without committing anything. This is the H ⊕ C1 ⊕ … ⊕ Ck
// operation that speculation builds execute against.
func (r *Repo) Merged(base CommitID, patches ...Patch) (Snapshot, error) {
	c, err := r.Lookup(base)
	if err != nil {
		return Snapshot{}, err
	}
	snap := c.snapshot
	for i, p := range patches {
		snap, err = snap.Apply(p)
		if err != nil {
			return Snapshot{}, fmt.Errorf("applying patch %d: %w", i, err)
		}
	}
	return snap, nil
}
