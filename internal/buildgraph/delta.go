package buildgraph

import "sort"

// DeletedHash is the Delta value recorded for a target that exists in the
// base graph but not in the changed graph. It can never collide with a real
// hash (hashes are hex).
const DeletedHash = "deleted"

// Delta is δ_{H⊕C}: the targets affected by a change, mapped to their
// post-change hashes (or DeletedHash for removed targets).
type Delta map[string]string

// Names returns the affected target labels in sorted order.
func (d Delta) Names() []string {
	out := make([]string, 0, len(d))
	for n := range d {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Diff computes the delta from base to changed: targets that are new, have a
// different Algorithm 1 hash, or were deleted. Two graphs over the same flat
// hash table have the same targets and can differ only where an overlay says
// so, which makes their diff O(overlays) instead of O(targets).
func Diff(base, changed *Graph) Delta {
	d := Delta{}
	if base.flat == changed.flat {
		for _, over := range [...]map[string]string{base.over, changed.over} {
			for name := range over {
				bh, _ := base.Hash(name)
				if h, _ := changed.Hash(name); h != bh {
					d[name] = h
				}
			}
		}
		return d
	}
	for name := range changed.targets {
		h, _ := changed.Hash(name)
		if bh, ok := base.Hash(name); !ok || bh != h {
			d[name] = h
		}
	}
	for name := range base.targets {
		if _, ok := changed.targets[name]; !ok {
			d[name] = DeletedHash
		}
	}
	return d
}

// SameStructure reports whether two graphs have identical structure: the
// same targets with the same srcs and deps. Content-only edits preserve
// structure; adding/removing targets, edges, or source listings does not.
func SameStructure(a, b *Graph) bool {
	if len(a.targets) != len(b.targets) {
		return false
	}
	for name, ta := range a.targets {
		tb, ok := b.targets[name]
		if !ok {
			return false
		}
		if ta == tb { // shared via incremental analysis: definitionally equal
			continue
		}
		if !equalStrings(ta.Srcs, tb.Srcs) || !equalStrings(ta.Deps, tb.Deps) {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NameIntersectionConflict is the cheap §5.2 test, valid when neither change
// altered graph structure: the changes conflict iff their deltas share a
// target name.
func NameIntersectionConflict(di, dj Delta) bool {
	small, large := di, dj
	if len(large) < len(small) {
		small, large = large, small
	}
	for name := range small {
		if _, ok := large[name]; ok {
			return true
		}
	}
	return false
}

// UnionConflict is the §5.2 union-graph algorithm for structure-altering
// changes: over the union of the edges of G_H, G_{H⊕Ci}, and G_{H⊕Cj}, the
// changes conflict iff some target transitively depends on affected targets
// of both — equivalently, the reverse-dependency closures of the two deltas
// intersect. It covers the Fig. 8 trap (name-disjoint deltas joined by a new
// edge) without building the combined graph.
func UnionConflict(gH, gi, gj *Graph) bool {
	return UnionConflictDeltas(Diff(gH, gi), Diff(gH, gj), gH, gi, gj)
}

// UnionConflictDeltas is UnionConflict with the two deltas supplied by the
// caller rather than recomputed from the graphs. The deltas contribute only
// their names and the graphs only their edge sets (the reverse-dependency
// union), so callers holding already-validated deltas — e.g. analyses
// re-homed across a head move, whose deltas and stored graphs carry stale
// hashes but current names and structure — can reuse them without
// rebuilding anything.
func UnionConflictDeltas(di, dj Delta, graphs ...*Graph) bool {
	if len(di) == 0 || len(dj) == 0 {
		return false
	}
	rdeps := map[string][]string{}
	for _, g := range graphs {
		for name, t := range g.targets {
			for _, d := range t.Deps {
				rdeps[d] = append(rdeps[d], name)
			}
		}
	}
	ci := unionClosure(di, rdeps)
	for name := range unionClosure(dj, rdeps) {
		if ci[name] {
			return true
		}
	}
	return false
}

func unionClosure(d Delta, rdeps map[string][]string) map[string]bool {
	seen := make(map[string]bool, len(d))
	stack := make([]string, 0, len(d))
	for name := range d {
		seen[name] = true
		//lint:ignore maporder worklist visit order does not affect the computed closure set
		stack = append(stack, name)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range rdeps[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return seen
}

// Equation6Conflict is the paper's exact-but-expensive definition: Ci and Cj
// conflict iff building them together affects targets differently than
// building them alone — i.e. δ_{H⊕Ci⊕Cj} is not the clean union of δ_{H⊕Ci}
// and δ_{H⊕Cj}. dc is the delta of the combined snapshot.
func Equation6Conflict(di, dj, dc Delta) bool {
	for name, hc := range dc {
		if di[name] != hc && dj[name] != hc {
			return true // affected together with a hash neither produces alone
		}
	}
	for name := range di {
		if _, ok := dc[name]; !ok {
			return true // affected alone but not together
		}
	}
	for name := range dj {
		if _, ok := dc[name]; !ok {
			return true
		}
	}
	return false
}
