package conflict

import (
	"maps"
	"sort"

	"mastergreen/internal/change"
)

// Graph is the conflict graph over a set of pending changes: vertices are
// changes (in submission order) and edges join potentially conflicting pairs.
//
// Every member holds a vertex number, stable while it stays a member and
// recycled through a free list once it leaves, so the vertex table is bounded
// by the most members the graph ever held at once. An adjacency row is the
// []int32 of a vertex's neighbours' numbers, unsorted; a position table maps
// a vertex number to its place in the submission order. A read by ID costs
// one map lookup to find its vertex and then walks ints; a read by position
// (At, AppendPredecessors) costs no lookup at all.
//
// Adjacency rows are shared rather than copied. Clone shares every row with
// its source, and whichever side writes to a row first copies it; Induced
// goes further and returns a read-only view that borrows the source's whole
// row table and vertex map, restricted to its own members by its own
// position table.
type Graph struct {
	order []change.ID
	vs    []int32 // vs[i] is the vertex number of order[i]
	vert  map[change.ID]int32
	pos   []int32 // vertex number → position in order, -1 for a non-member
	rows  [][]int32
	// own marks the rows this graph may write in place. Every other row is
	// shared with a graph this one was cloned from or into, and is copied
	// before its first write.
	own  []bool
	free []int32 // vertex numbers of departed members, for reuse
	// view marks an Induced view: rows and vert are the source graph's, so
	// either can name non-members, which readers skip (position -1); extra
	// numbers the members vert does not. loose marks, by vertex number, the
	// members in conflict with every other member whatever the rows say —
	// among them every member without a row — and looseAt lists their
	// positions, ascending.
	view    bool
	extra   map[change.ID]int32
	loose   []bool
	looseAt []int
}

// vertex returns id's vertex number, if id is a member.
func (g *Graph) vertex(id change.ID) (int32, bool) {
	v, ok := g.vert[id]
	if !g.view || (ok && g.pos[v] >= 0) {
		return v, ok
	}
	v, ok = g.extra[id]
	return v, ok
}

// NewGraph creates a conflict graph with the given change order.
func NewGraph(order []change.ID) *Graph {
	g := &Graph{vert: make(map[change.ID]int32, len(order))}
	for _, id := range order {
		g.AddChange(id)
	}
	return g
}

// AddChange appends a change to the submission order (idempotent).
func (g *Graph) AddChange(id change.ID) {
	g.mustOwnRows()
	if _, ok := g.vert[id]; ok {
		return
	}
	var v int32
	if n := len(g.free); n > 0 {
		v, g.free = g.free[n-1], g.free[:n-1]
	} else {
		v = int32(len(g.rows))
		g.rows = append(g.rows, nil)
		g.pos = append(g.pos, -1)
		g.own = append(g.own, false)
	}
	g.vert[id] = v
	g.pos[v] = int32(len(g.order))
	g.order = append(g.order, id)
	g.vs = append(g.vs, v)
}

// mustOwnRows stops a write to an Induced view, whose row table belongs to
// the graph it was taken from.
func (g *Graph) mustOwnRows() {
	if g.view {
		panic("conflict: write to an Induced view")
	}
}

// writable returns v's row for writing, copying it first if it is shared.
func (g *Graph) writable(v int32) []int32 {
	if !g.own[v] {
		g.rows[v] = append(make([]int32, 0, len(g.rows[v])+1), g.rows[v]...)
		g.own[v] = true
	}
	return g.rows[v]
}

// unlink removes u from v's row.
func (g *Graph) unlink(v, u int32) {
	row := g.writable(v)
	for i, w := range row {
		if w == u {
			row[i] = row[len(row)-1]
			g.rows[v] = row[:len(row)-1]
			return
		}
	}
}

// adjacent reports whether u is in v's row.
func (g *Graph) adjacent(v, u int32) bool {
	for _, w := range g.rows[v] {
		if w == u {
			return true
		}
	}
	return false
}

// AddEdge records that two changes potentially conflict.
func (g *Graph) AddEdge(a, b change.ID) {
	if a == b {
		return
	}
	g.AddChange(a)
	g.AddChange(b)
	va, vb := g.vert[a], g.vert[b]
	if g.adjacent(va, vb) {
		return
	}
	g.rows[va] = append(g.writable(va), vb)
	g.rows[vb] = append(g.writable(vb), va)
}

// Isolate erases every edge incident to the change, keeping the vertex. The
// incremental graph updater uses it on a vertex whose analysis changed, then
// re-derives the vertex's edges from the target index.
func (g *Graph) Isolate(id change.ID) {
	g.mustOwnRows()
	if v, ok := g.vert[id]; ok {
		g.isolate(v)
	}
}

func (g *Graph) isolate(v int32) {
	for _, u := range g.rows[v] {
		g.unlink(u, v)
	}
	g.rows[v], g.own[v] = nil, false
}

// Remove deletes changes (e.g. after they commit or are rejected). The
// submission order is compacted once however many vertices leave; their
// vertex numbers go to the free list.
func (g *Graph) Remove(ids ...change.ID) {
	g.mustOwnRows()
	removed := false
	for _, id := range ids {
		v, ok := g.vert[id]
		if !ok {
			continue
		}
		g.isolate(v)
		delete(g.vert, id)
		g.pos[v] = -1
		g.free = append(g.free, v)
		removed = true
	}
	if !removed {
		return
	}
	k := 0
	for i, v := range g.vs {
		if g.pos[v] < 0 {
			continue
		}
		g.order[k], g.vs[k], g.pos[v] = g.order[i], v, int32(k)
		k++
	}
	clear(g.order[k:])
	g.order, g.vs = g.order[:k], g.vs[:k]
}

// Induced returns the subgraph over ids, in the given order, as a read-only
// view: two of them are joined iff g joins them. An id that is not a vertex
// of g (not analyzed yet) is treated conservatively and conflicts with every
// other id; a nil g knows no ids. The view borrows g's row table and vertex
// map instead of copying them and keeps only its own position table, so it
// costs its members and g's vertex count, not their edges; g must not be
// written to while the view is in use, and writing to the view panics.
func (g *Graph) Induced(ids []change.ID) *Graph {
	if g == nil {
		g = &Graph{}
	}
	base := len(g.pos)
	out := &Graph{
		order: append([]change.ID(nil), ids...),
		vs:    make([]int32, len(ids)),
		vert:  g.vert,
		rows:  g.rows,
		view:  true,
		extra: map[change.ID]int32{},
	}
	next := int32(base) // numbers for ids g does not know, past g's table
	for i, id := range ids {
		v, known := g.vertex(id)
		if !known {
			v = next
			next++
		}
		if w, ok := g.vert[id]; !ok || w != v { // the borrowed map misses it
			out.extra[id] = v
		}
		out.vs[i] = v
		if !known || g.isLoose(v) {
			if out.loose == nil {
				out.loose = make([]bool, base+len(ids))
			}
			out.loose[v] = true
			out.looseAt = append(out.looseAt, i)
		}
	}
	out.pos = make([]int32, next)
	for i := range out.pos {
		out.pos[i] = -1
	}
	for i, v := range out.vs {
		out.pos[v] = int32(i)
	}
	return out
}

// isLoose reports whether vertex v is a loose member of a view.
func (g *Graph) isLoose(v int32) bool { return int(v) < len(g.loose) && g.loose[v] }

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
		vs:    append([]int32(nil), g.vs...),
		vert:  maps.Clone(g.vert),
		pos:   append([]int32(nil), g.pos...),
		rows:  append([][]int32(nil), g.rows...),
		own:   make([]bool, len(g.own)),
		free:  append([]int32(nil), g.free...),
	}
	clear(g.own)
	return c
}

// Len returns the number of changes in the graph.
func (g *Graph) Len() int { return len(g.order) }

// Order returns change IDs in submission order (a copy).
func (g *Graph) Order() []change.ID { return append([]change.ID(nil), g.order...) }

// At returns the change at position i of the submission order.
func (g *Graph) At(i int) change.ID { return g.order[i] }

// Position returns id's position in the submission order, or -1 if id is not
// a vertex.
func (g *Graph) Position(id change.ID) int {
	v, ok := g.vertex(id)
	if !ok {
		return -1
	}
	return int(g.pos[v])
}

// Conflict reports whether two changes are joined by an edge.
func (g *Graph) Conflict(a, b change.ID) bool {
	va, oka := g.vertex(a)
	vb, okb := g.vertex(b)
	if a == b || !oka || !okb {
		return false
	}
	return g.isLoose(va) || g.isLoose(vb) || g.adjacent(va, vb)
}

// Contains reports whether the change is a vertex of the graph. A change the
// graph's builder has not analyzed yet is not, and Induced treats it
// conservatively.
func (g *Graph) Contains(id change.ID) bool {
	_, ok := g.vertex(id)
	return ok
}

// neighborsBefore appends to dst the positions in the submission order of
// vertex v's neighbours that come before position limit, unsorted.
func (g *Graph) neighborsBefore(dst []int, v int32, limit int) []int {
	if g.isLoose(v) {
		for j := 0; j < limit && j < len(g.order); j++ {
			if g.vs[j] != v {
				dst = append(dst, j)
			}
		}
		return dst
	}
	if dst == nil {
		dst = make([]int, 0, len(g.rows[v])+len(g.looseAt))
	}
	for _, u := range g.rows[v] {
		if j := int(g.pos[u]); j >= 0 && j < limit && !g.isLoose(u) {
			dst = append(dst, j)
		}
	}
	for _, j := range g.looseAt {
		if j >= limit {
			break
		}
		dst = append(dst, j)
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
	v, ok := g.vertex(id)
	if !ok {
		return nil
	}
	return g.sorted(g.neighborsBefore(nil, v, len(g.order)))
}

// ConflictingPredecessors returns the changes submitted before id that
// conflict with it — the set the speculation engine must speculate over.
func (g *Graph) ConflictingPredecessors(id change.ID) []change.ID {
	v, ok := g.vertex(id)
	if !ok {
		return nil
	}
	return g.sorted(g.neighborsBefore(nil, v, int(g.pos[v])))
}

// AppendPredecessors appends to dst, unsorted, the positions of the changes
// before position i that conflict with the change there: a lookup-free
// ConflictingPredecessors that allocates nothing once dst has room.
func (g *Graph) AppendPredecessors(dst []int, i int) []int {
	return g.neighborsBefore(dst, g.vs[i], i)
}

// HasConflictingPredecessor reports whether any change submitted before id
// conflicts with it, without materializing or ordering the set.
func (g *Graph) HasConflictingPredecessor(id change.ID) bool {
	v, ok := g.vertex(id)
	if !ok {
		return false
	}
	idx := int(g.pos[v])
	if g.isLoose(v) {
		return idx > 0
	}
	if len(g.looseAt) > 0 && g.looseAt[0] < idx {
		return true
	}
	for _, u := range g.rows[v] {
		if j := int(g.pos[u]); j >= 0 && j < idx {
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
			near = g.neighborsBefore(near[:0], g.vs[n], len(g.order))
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
