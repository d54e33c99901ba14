package conflict

import (
	"sort"

	"mastergreen/internal/change"
)

// Graph is the conflict graph over a set of pending changes: vertices are
// changes (in submission order) and edges join potentially conflicting pairs.
//
// Adjacency rows are shared rather than copied. Clone shares every row with
// its source, and whichever side writes to a row first copies it; Induced
// goes further and returns a read-only view that borrows the source's whole
// row table, restricted to its own members.
type Graph struct {
	order []change.ID
	index map[change.ID]int
	edges map[change.ID]map[change.ID]bool
	// own holds the rows this graph may write in place. Every other row is
	// shared with a graph this one was cloned from or into, and is copied
	// before its first write.
	own map[change.ID]bool
	// view marks an Induced view: edges is the source graph's table, so rows
	// can name non-members, which every reader skips, and the members in
	// loose conflict with every other member whatever the rows say.
	view  bool
	loose map[change.ID]bool
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
	g.mustOwnRows()
	if _, ok := g.index[id]; ok {
		return
	}
	g.index[id] = len(g.order)
	g.order = append(g.order, id)
}

// mustOwnRows stops a write to an Induced view, whose row table belongs to
// the graph it was taken from.
func (g *Graph) mustOwnRows() {
	if g.view {
		panic("conflict: write to an Induced view")
	}
}

// writable returns id's row for writing, copying it first if it is shared
// (or making it, for a vertex that never had an edge).
func (g *Graph) writable(id change.ID) map[change.ID]bool {
	if g.own[id] {
		return g.edges[id]
	}
	row := make(map[change.ID]bool, len(g.edges[id])+1)
	for o := range g.edges[id] {
		row[o] = true
	}
	if g.own == nil {
		g.own = map[change.ID]bool{}
	}
	g.edges[id], g.own[id] = row, true
	return row
}

// AddEdge records that two changes potentially conflict.
func (g *Graph) AddEdge(a, b change.ID) {
	if a == b {
		return
	}
	g.AddChange(a)
	g.AddChange(b)
	g.writable(a)[b] = true
	g.writable(b)[a] = true
}

// Isolate erases every edge incident to the change, keeping the vertex. The
// incremental graph updater uses it on a vertex whose analysis changed, then
// re-derives the vertex's edges from the target index.
func (g *Graph) Isolate(id change.ID) {
	g.mustOwnRows()
	for o := range g.edges[id] {
		delete(g.writable(o), id)
	}
	delete(g.edges, id)
	delete(g.own, id)
}

// Remove deletes changes (e.g. after they commit or are rejected). The
// submission order is compacted once however many vertices leave.
func (g *Graph) Remove(ids ...change.ID) {
	g.mustOwnRows()
	removed := false
	for _, id := range ids {
		if _, ok := g.index[id]; !ok {
			continue
		}
		g.Isolate(id)
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

// Induced returns the subgraph over ids, in the given order, as a read-only
// view: two of them are joined iff g joins them. An id that is not a vertex
// of g (not analyzed yet) is treated conservatively and conflicts with every
// other id; a nil g knows no ids. The view borrows g's rows instead of
// copying them, so it costs its members, not their edges; g must not be
// written to while the view is in use, and writing to the view panics.
func (g *Graph) Induced(ids []change.ID) *Graph {
	out := &Graph{
		order: append([]change.ID(nil), ids...),
		index: make(map[change.ID]int, len(ids)),
		view:  true,
	}
	if g != nil {
		out.edges = g.edges
	}
	for i, id := range ids {
		out.index[id] = i
		if g == nil || !g.Contains(id) || g.loose[id] {
			if out.loose == nil {
				out.loose = map[change.ID]bool{}
			}
			out.loose[id] = true
		}
	}
	return out
}

// Clone returns a copy that later writes to g never show through, and the
// other way round. The two share their adjacency rows, so a clone costs its
// vertices, not its edges; it is a write to g as far as concurrent use goes.
func (g *Graph) Clone() *Graph {
	if g.view {
		c := *g // nothing a view holds is ever written
		return &c
	}
	c := &Graph{
		order: append([]change.ID(nil), g.order...),
		index: make(map[change.ID]int, len(g.index)),
		edges: make(map[change.ID]map[change.ID]bool, len(g.edges)),
	}
	for id, i := range g.index {
		c.index[id] = i
	}
	for id, row := range g.edges {
		c.edges[id] = row
	}
	g.own = nil
	return c
}

// Len returns the number of changes in the graph.
func (g *Graph) Len() int { return len(g.order) }

// Order returns change IDs in submission order (a copy).
func (g *Graph) Order() []change.ID { return append([]change.ID(nil), g.order...) }

// Conflict reports whether two changes are joined by an edge.
func (g *Graph) Conflict(a, b change.ID) bool {
	if !g.view {
		return g.edges[a][b]
	}
	return a != b && g.Contains(a) && g.Contains(b) && (g.loose[a] || g.loose[b] || g.edges[a][b])
}

// Contains reports whether the change is a vertex of the graph. A change the
// graph's builder has not analyzed yet is not, and Induced treats it
// conservatively.
func (g *Graph) Contains(id change.ID) bool {
	_, ok := g.index[id]
	return ok
}

// neighborsBefore appends to dst the positions in the submission order of
// id's neighbours that come before position limit, unsorted.
func (g *Graph) neighborsBefore(dst []int, id change.ID, limit int) []int {
	if dst == nil {
		dst = make([]int, 0, len(g.edges[id])+len(g.loose))
	}
	if g.loose[id] {
		for j := 0; j < limit && j < len(g.order); j++ {
			if g.order[j] != id {
				dst = append(dst, j)
			}
		}
		return dst
	}
	for o := range g.edges[id] {
		if j, member := g.index[o]; member && j < limit && !g.loose[o] {
			//lint:ignore maporder callers sort the positions (sorted) or only mark them visited (Components)
			dst = append(dst, j)
		}
	}
	for o := range g.loose {
		if j := g.index[o]; j < limit {
			//lint:ignore maporder as above
			dst = append(dst, j)
		}
	}
	return dst
}

// sorted turns positions into change IDs in submission order.
func (g *Graph) sorted(pos []int) []change.ID {
	if len(pos) == 0 {
		return nil
	}
	sort.Ints(pos)
	out := make([]change.ID, len(pos))
	for i, j := range pos {
		out[i] = g.order[j]
	}
	return out
}

// Neighbors returns the changes conflicting with id, in submission order.
func (g *Graph) Neighbors(id change.ID) []change.ID {
	if !g.Contains(id) {
		return nil
	}
	return g.sorted(g.neighborsBefore(nil, id, len(g.order)))
}

// ConflictingPredecessors returns the changes submitted before id that
// conflict with it — the set the speculation engine must speculate over.
func (g *Graph) ConflictingPredecessors(id change.ID) []change.ID {
	idx, ok := g.index[id]
	if !ok {
		return nil
	}
	return g.sorted(g.neighborsBefore(nil, id, idx))
}

// HasConflictingPredecessor reports whether any change submitted before id
// conflicts with it, without materializing or ordering the set.
func (g *Graph) HasConflictingPredecessor(id change.ID) bool {
	idx, ok := g.index[id]
	if !ok {
		return false
	}
	if g.loose[id] {
		return idx > 0
	}
	for o := range g.edges[id] {
		if j, member := g.index[o]; member && j < idx {
			return true
		}
	}
	for o := range g.loose {
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
	seen := make([]bool, len(g.order))
	var comps [][]change.ID
	var stack, near []int
	for i := range g.order {
		if seen[i] {
			continue
		}
		var comp []int
		stack = append(stack[:0], i)
		seen[i] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			near = g.neighborsBefore(near[:0], g.order[n], len(g.order))
			for _, m := range near {
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		comps = append(comps, g.sorted(comp))
	}
	return comps
}
