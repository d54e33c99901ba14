package repo

import (
	"fmt"
	"time"
)

// RevertPatch computes the inverse of the commit's effect: applying the
// returned patch to any snapshot where the commit's changes are still intact
// restores the files the commit touched to their pre-commit contents. This
// is what lets SubmitQueue's always-green history support §1's "(ii) roll
// back to any previously committed change, and not necessarily to the last
// working version".
func (r *Repo) RevertPatch(id CommitID) (Patch, error) {
	c, err := r.Lookup(id)
	if err != nil {
		return Patch{}, err
	}
	if c.Parent == "" {
		return Patch{}, fmt.Errorf("repo: cannot revert the root commit")
	}
	parent, err := r.Lookup(c.Parent)
	if err != nil {
		return Patch{}, err
	}
	// The revert patch transforms the commit's state back to its parent's.
	// For files modified in place the inverse is expressed as a *line-level*
	// hunk (common prefix/suffix trimmed), so the revert composes with later
	// commits that edited other regions of the same file; whole-file
	// create/delete inverses stay whole-file.
	var p Patch
	cs, ps := c.Snapshot(), parent.Snapshot()
	changed := ps.ChangedPaths(cs)
	for _, path := range changed {
		oldC, inParent := ps.Read(path)
		newC, inCommit := cs.Read(path)
		switch {
		case !inParent: // created by the commit: deleted below
		case !inCommit:
			// Commit deleted the file: revert recreates it.
			p.Changes = append(p.Changes, FileChange{Path: path, Op: OpCreate, NewContent: oldC})
		default:
			// Commit modified the file: invert as a line hunk.
			p.Changes = append(p.Changes, invertLines(path, newC, oldC))
		}
	}
	for _, path := range changed {
		if _, inParent := ps.Read(path); !inParent {
			// Commit created the file: revert deletes it.
			cur, _ := cs.Read(path)
			p.Changes = append(p.Changes, FileChange{Path: path, Op: OpDelete, BaseHash: HashContent(cur)})
		}
	}
	return p, nil
}

// invertLines builds the line hunk transforming from → to, trimming the
// common prefix and suffix so only the changed region is pinned.
func invertLines(path, from, to string) FileChange {
	a, b := splitLines(from), splitLines(to)
	pre := 0
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	suf := 0
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	old := append([]string(nil), a[pre:len(a)-suf]...)
	repl := append([]string(nil), b[pre:len(b)-suf]...)
	return FileChange{
		Path: path, Op: OpEditLines,
		StartLine: pre + 1, OldLines: old, NewLines: repl,
	}
}

// Revert commits the inverse of the given commit on top of the current HEAD.
// It fails with ErrMergeConflict if later commits modified the same files
// (the caller must then resolve manually, exactly as with git revert).
func (r *Repo) Revert(id CommitID, author string, when time.Time) (*Commit, error) {
	p, err := r.RevertPatch(id)
	if err != nil {
		return nil, err
	}
	target, _ := r.Lookup(id)
	head := r.Head()
	return r.CommitPatch(head.ID, p, author,
		fmt.Sprintf("revert %q (%s)", target.Message, id), when)
}

// RollbackState returns the full snapshot at the given mainline position,
// supporting §1's "(i) instantly release new features from any commit point"
// — any historical commit is a valid, green release point.
func (r *Repo) RollbackState(seq int) (Snapshot, error) {
	c, err := r.At(seq)
	if err != nil {
		return Snapshot{}, err
	}
	return c.Snapshot(), nil
}
