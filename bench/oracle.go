package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
)

// The oracle checks a run against plain maps and a line insert of its own.
// It shares no code with planner, arbiter or conflict: whatever those layers
// do to decide, the mainline they leave behind must be exactly the initial
// tree plus the committed edits in commit order, and must hold no BROKEN
// line.

// decision is one final outcome as the harness observed it.
type decision struct {
	id        string
	committed bool
	seq       int // mainline position of the commit (committed only)
}

// checkDecisions verifies the outcomes and the final tree, counting every
// violation in r.failed, and returns the committed IDs in commit order.
// pending is how many submitted changes may legitimately be undecided (the
// window a closed loop holds open, or what an aborted run already counted as
// failed). strict additionally requires every clean change to commit: line
// insertions never conflict, so without injected faults a rejected clean
// change is a wrong decision. head visits every (path, content) of HEAD.
func checkDecisions(r *result, initial map[string]string, edits []edit, decisions []decision, pending int, strict bool,
	head func(visit func(path, content string) bool)) []string {

	byID := make(map[string]edit, len(edits))
	for _, e := range edits {
		byID[e.id] = e
	}
	seen := make(map[string]int, len(decisions))
	var committed []decision
	for _, d := range decisions {
		e, known := byID[d.id]
		if !known {
			r.fail(1, "oracle: outcome for %s, which was never submitted", d.id)
			continue
		}
		seen[d.id]++
		if seen[d.id] > 1 {
			r.fail(1, "oracle: %s has %d final outcomes", d.id, seen[d.id])
			continue
		}
		if d.committed {
			if e.broken {
				r.fail(1, "oracle: %s carries %s and was committed", d.id, brokenToken)
			}
			committed = append(committed, d)
		} else if strict && !e.broken {
			r.fail(1, "oracle: %s is clean and was rejected", d.id)
		}
	}
	undecided := 0
	for _, e := range edits {
		if seen[e.id] == 0 {
			undecided++
		}
	}
	if undecided > pending {
		r.fail(undecided-pending, "oracle: %d submitted changes have no final outcome (%d may be pending)", undecided, pending)
	}

	// Replay: initial tree + committed edits in commit order, with the
	// oracle's own insert (every edit puts one line on top of one file).
	sort.Slice(committed, func(i, j int) bool { return committed[i].seq < committed[j].seq })
	tree := make(map[string]string, len(initial))
	for p, c := range initial {
		tree[p] = c
	}
	order := make([]string, len(committed))
	for i, d := range committed {
		e := byID[d.id]
		tree[e.path] = e.line + "\n" + tree[e.path]
		order[i] = d.id
		if i > 0 && committed[i-1].seq == d.seq {
			r.fail(1, "oracle: %s and %s share mainline position %d", committed[i-1].id, d.id, d.seq)
		}
	}
	files, mismatched := 0, 0
	head(func(path, content string) bool {
		files++
		if strings.Contains(content, brokenToken) {
			r.fail(1, "oracle: HEAD holds %s in %s", brokenToken, path)
		}
		if want, ok := tree[path]; !ok || want != content {
			mismatched++
		}
		return true
	})
	if mismatched > 0 || files != len(tree) {
		r.fail(1+mismatched, "oracle: HEAD differs from the replayed tree in %d of %d files (replay has %d)",
			mismatched, files, len(tree))
	}
	return order
}

// hashSequence is the equality check for runs whose commit order must
// repeat; hashSet for runs where concurrent clients may reorder commits but
// must not change which changes land.
func hashSequence(ids []string) string {
	h := sha256.New()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func hashSet(ids []string) string {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	return hashSequence(sorted)
}
