package conflict

import (
	"sort"

	"mastergreen/internal/change"
)

// Graph is the conflict graph over a set of pending changes: vertices are
// changes (in submission order) and edges join potentially conflicting pairs.
type Graph struct {
	order []change.ID
	index map[change.ID]int
	edges map[change.ID]map[change.ID]bool
}

// NewGraph creates a conflict graph with the given change order.
func NewGraph(order []change.ID) *Graph {
	g := &Graph{index: map[change.ID]int{}, edges: map[change.ID]map[change.ID]bool{}}
	for _, id := range order {
		g.AddChange(id)
	}
	return g
}

// AddChange appends a change to the submission order (idempotent).
func (g *Graph) AddChange(id change.ID) {
	if _, ok := g.index[id]; ok {
		return
	}
	g.index[id] = len(g.order)
	g.order = append(g.order, id)
	g.edges[id] = map[change.ID]bool{}
}

// AddEdge records that two changes potentially conflict.
func (g *Graph) AddEdge(a, b change.ID) {
	if a == b {
		return
	}
	g.AddChange(a)
	g.AddChange(b)
	g.edges[a][b] = true
	g.edges[b][a] = true
}

// Isolate erases every edge incident to the change, keeping the vertex. The
// incremental graph updater uses it on a vertex whose analysis changed, then
// re-derives the vertex's edges from the target index.
func (g *Graph) Isolate(id change.ID) {
	for o := range g.edges[id] {
		delete(g.edges[o], id)
	}
	clear(g.edges[id])
}

// Remove deletes changes (e.g. after they commit or are rejected). The
// submission order is compacted once however many vertices leave.
func (g *Graph) Remove(ids ...change.ID) {
	removed := false
	for _, id := range ids {
		if _, ok := g.index[id]; !ok {
			continue
		}
		g.Isolate(id)
		delete(g.edges, id)
		delete(g.index, id)
		removed = true
	}
	if !removed {
		return
	}
	kept := g.order[:0]
	for _, o := range g.order {
		if _, ok := g.index[o]; ok {
			g.index[o] = len(kept)
			kept = append(kept, o)
		}
	}
	g.order = kept
}

// Induced returns the subgraph over ids, in the given order: two of them are
// joined iff g joins them. An id that is not a vertex of g (not analyzed yet)
// is treated conservatively and conflicts with every other id; a nil g knows
// no ids. The walk follows each member's adjacency, so it costs the members'
// degree, not the square of their number.
func (g *Graph) Induced(ids []change.ID) *Graph {
	out := NewGraph(ids)
	for _, id := range ids {
		if g == nil || !g.Contains(id) {
			for _, o := range ids {
				out.AddEdge(id, o)
			}
			continue
		}
		row := out.edges[id] // g is symmetric: the other end writes the other direction
		for o := range g.edges[id] {
			if _, in := out.index[o]; in {
				row[o] = true
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph. The analyzer maintains one graph
// incrementally across epochs and hands clones to callers, so a caller's view
// is never mutated by later updates.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		order: append([]change.ID(nil), g.order...),
		index: make(map[change.ID]int, len(g.index)),
		edges: make(map[change.ID]map[change.ID]bool, len(g.edges)),
	}
	for id, i := range g.index {
		c.index[id] = i
	}
	for id, set := range g.edges {
		es := make(map[change.ID]bool, len(set))
		for o := range set {
			es[o] = true
		}
		c.edges[id] = es
	}
	return c
}

// Len returns the number of changes in the graph.
func (g *Graph) Len() int { return len(g.order) }

// Order returns change IDs in submission order (a copy).
func (g *Graph) Order() []change.ID { return append([]change.ID(nil), g.order...) }

// Conflict reports whether two changes are joined by an edge.
func (g *Graph) Conflict(a, b change.ID) bool { return g.edges[a][b] }

// Contains reports whether the change is a vertex of the graph. A change the
// graph's builder has not analyzed yet is not, and Induced treats it
// conservatively.
func (g *Graph) Contains(id change.ID) bool {
	_, ok := g.index[id]
	return ok
}

// Neighbors returns the changes conflicting with id, in submission order.
func (g *Graph) Neighbors(id change.ID) []change.ID {
	out := make([]change.ID, 0, len(g.edges[id]))
	for o := range g.edges[id] {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return g.index[out[i]] < g.index[out[j]] })
	return out
}

// ConflictingPredecessors returns the changes submitted before id that
// conflict with it — the set the speculation engine must speculate over.
func (g *Graph) ConflictingPredecessors(id change.ID) []change.ID {
	idx, ok := g.index[id]
	if !ok {
		return nil
	}
	var out []change.ID
	for _, o := range g.Neighbors(id) {
		if g.index[o] < idx {
			out = append(out, o)
		}
	}
	return out
}

// HasConflictingPredecessor reports whether any change submitted before id
// conflicts with it, without materializing or ordering the set.
func (g *Graph) HasConflictingPredecessor(id change.ID) bool {
	idx, ok := g.index[id]
	if !ok {
		return false
	}
	for o := range g.edges[id] {
		if g.index[o] < idx {
			return true
		}
	}
	return false
}

// Components returns the connected components of the conflict graph, each in
// submission order, with components ordered by their earliest change.
// Changes in different components are mutually independent and can build and
// commit fully in parallel (§5).
func (g *Graph) Components() [][]change.ID {
	seen := map[change.ID]bool{}
	var comps [][]change.ID
	for _, id := range g.order {
		if seen[id] {
			continue
		}
		var comp []change.ID
		stack := []change.ID{id}
		seen[id] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			for m := range g.edges[n] {
				if !seen[m] {
					seen[m] = true
					//lint:ignore maporder visit order is immaterial: comp is sorted by submission index below
					stack = append(stack, m)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return g.index[comp[i]] < g.index[comp[j]] })
		comps = append(comps, comp)
	}
	return comps
}
