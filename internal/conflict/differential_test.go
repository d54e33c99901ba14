package conflict

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mastergreen/internal/buildgraph"
	"mastergreen/internal/change"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
)

// bruteForce is the reference the memoized graph is compared with: a fresh
// merge and build-graph analysis per pending change at the current head and
// a direct §5.2 comparison of every pair — no analyzer, no memo, no index.
// It returns the analyzable changes in pending order, the conflicting pairs
// among them, and for every other change whether it failed to apply (true)
// or failed analysis (false).
func bruteForce(t *testing.T, r *repo.Repo, pending []*change.Change) (ids []change.ID, edges map[[2]change.ID]bool, failed map[change.ID]bool) {
	t.Helper()
	type fresh struct {
		delta     buildgraph.Delta
		graph     *buildgraph.Graph
		structure bool
	}
	head := r.Head()
	gH, err := buildgraph.Analyze(head.Snapshot())
	if err != nil {
		t.Fatalf("head does not analyze: %v", err)
	}
	var ok []fresh
	failed = map[change.ID]bool{}
	for _, c := range pending {
		snap, err := r.Merged(head.ID, c.Patch)
		if err != nil {
			failed[c.ID] = true
			continue
		}
		g, err := buildgraph.Analyze(snap)
		if err != nil {
			failed[c.ID] = false
			continue
		}
		ids = append(ids, c.ID)
		ok = append(ok, fresh{buildgraph.Diff(gH, g), g, !buildgraph.SameStructure(gH, g)})
	}
	edges = map[[2]change.ID]bool{}
	for i := range ok {
		for j := i + 1; j < len(ok); j++ {
			var conf bool
			if !ok[i].structure && !ok[j].structure {
				conf = buildgraph.NameIntersectionConflict(ok[i].delta, ok[j].delta)
			} else {
				conf = buildgraph.UnionConflictDeltas(ok[i].delta, ok[j].delta, gH, ok[i].graph, ok[j].graph)
			}
			if conf {
				edges[[2]change.ID{ids[i], ids[j]}] = true
			}
		}
	}
	return ids, edges, failed
}

// TestGraphMatchesBruteForce interleaves arrivals, removals and head moves
// over content-only, structure-changing (BUILD-edit), unowned-file and
// no-longer-applying changes and after every step compares the analyzer's
// incrementally maintained graph edge for edge with bruteForce.
func TestGraphMatchesBruteForce(t *testing.T) {
	const pkgs, steps = 8, 150
	var total Stats
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		files := map[string]string{"docs/readme.txt": "readme v0"}
		for k := 0; k < pkgs; k++ {
			deps := ""
			if k%2 == 1 {
				deps = fmt.Sprintf(" deps=//p%d:t%d", k-1, k-1)
			}
			files[fmt.Sprintf("p%d/BUILD", k)] = fmt.Sprintf("target t%d srcs=a.go,b.go%s", k, deps)
			files[fmt.Sprintf("p%d/a.go", k)] = "a v0"
			files[fmt.Sprintf("p%d/b.go", k)] = "b v0"
		}
		r := repo.New(files)
		a := New(r)
		var pending []*change.Change
		arrive := func(n int) *change.Change {
			id, k := fmt.Sprintf("s%d-c%03d", seed, n), rng.Intn(pkgs)
			switch kind := rng.Intn(10); {
			case kind < 6: // content-only; two edits of one file stop applying once either lands
				return mkChange(t, r, id, fmt.Sprintf("p%d/%s.go", k, []string{"a", "b"}[rng.Intn(2)]), id)
			case kind < 8: // BUILD edit: rewires tK's dep (sometimes into a cycle, which fails analysis)
				j := rng.Intn(pkgs)
				return mkChange(t, r, id, fmt.Sprintf("p%d/BUILD", k),
					fmt.Sprintf("target t%d srcs=a.go,b.go deps=//p%d:t%d", k, j, j))
			case kind < 9: // new unowned file: empty delta
				return mkChange(t, r, id, fmt.Sprintf("notes/%s.txt", id), id)
			default: // existing unowned file: empty delta, stops applying when a sibling lands
				return mkChange(t, r, id, "docs/readme.txt", id)
			}
		}
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(pending) < 4:
				pending = append(pending, arrive(step))
			case op < 7:
				i := rng.Intn(len(pending))
				pending = append(pending[:i:i], pending[i+1:]...)
			default: // head move: land a pending change that applies and analyzes
				ids, _, _ := bruteForce(t, r, pending)
				if len(ids) == 0 {
					continue
				}
				land := ids[rng.Intn(len(ids))]
				for i, c := range pending {
					if c.ID == land {
						if _, err := r.CommitPatch(r.Head().ID, c.Patch, "dev", string(c.ID), time.Time{}); err != nil {
							t.Fatal(err)
						}
						pending = append(pending[:i:i], pending[i+1:]...)
						break
					}
				}
			}

			g, failed := a.BuildGraph(pending)
			ids, edges, wantFailed := bruteForce(t, r, pending)
			if got := g.Order(); !reflect.DeepEqual(got, ids) {
				t.Fatalf("seed %d step %d: vertices %v, want %v", seed, step, got, ids)
			}
			for i, x := range ids {
				for _, y := range ids[i+1:] {
					if got, want := g.Conflict(x, y), edges[[2]change.ID{x, y}]; got != want {
						t.Fatalf("seed %d step %d: edge %s-%s = %v, brute force says %v", seed, step, x, y, got, want)
					}
				}
			}
			if len(failed) != len(wantFailed) {
				t.Fatalf("seed %d step %d: failed %v, want %v", seed, step, failed, wantFailed)
			}
			// The planner rejects a failed change on the spot; it never
			// returns to the pending set.
			kept := pending[:0:0]
			for _, c := range pending {
				apply, isFailed := wantFailed[c.ID]
				if !isFailed {
					kept = append(kept, c)
				} else if err := failed[c.ID]; err == nil || IsApplyFailure(err) != apply {
					t.Fatalf("seed %d step %d: %s failed with %v, want apply failure = %v", seed, step, c.ID, err, apply)
				}
			}
			pending = kept
		}
		st := a.Stats()
		total.CheapComparisons += st.CheapComparisons
		total.UnionComparisons += st.UnionComparisons
		total.ReusedAnalyses += st.ReusedAnalyses
		total.SelectiveInvalidations += st.SelectiveInvalidations
		total.PatchApplyFailures += st.PatchApplyFailures
		total.PairsReused += st.PairsReused
	}
	// The walk must have exercised every path it claims to cover.
	if total.CheapComparisons == 0 || total.UnionComparisons == 0 || total.ReusedAnalyses == 0 ||
		total.SelectiveInvalidations == 0 || total.PatchApplyFailures == 0 || total.PairsReused == 0 {
		t.Fatalf("walk left a path unexercised: %+v", total)
	}
}

// graphFacts renders what the eight read accessors of a graph return, asked
// about every id of the universe (members or not), so that two graphs can be
// compared by behaviour whatever their representation.
func graphFacts(g *Graph, universe []change.ID) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "len %d order %v components %v\n", g.Len(), g.Order(), g.Components())
	for _, a := range universe {
		fmt.Fprintf(&sb, "%s: in %v nb %v pred %v haspred %v conf", a, g.Contains(a),
			g.Neighbors(a), g.ConflictingPredecessors(a), g.HasConflictingPredecessor(a))
		for _, b := range universe {
			if g.Conflict(a, b) {
				fmt.Fprintf(&sb, " %s", b)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestInducedMatchesPairWalk compares the Graph.Induced view, on every read
// accessor, with the materialized subgraph it replaced — NewGraph plus an
// edge for every pair that Contains/Contains/Conflict joins — on random
// graphs and id sets that include ids the graph does not know, on a nil
// graph, and on a view of a view.
func TestInducedMatchesPairWalk(t *testing.T) {
	pairWalk := func(g *Graph, ids []change.ID) *Graph {
		out := NewGraph(ids)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if g == nil || !g.Contains(ids[i]) || !g.Contains(ids[j]) || g.Conflict(ids[i], ids[j]) {
					out.AddEdge(ids[i], ids[j])
				}
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(30)
		all := make([]change.ID, n+3) // the last three are never vertices of g
		for i := range all {
			all[i] = change.ID(fmt.Sprintf("c%02d", i))
		}
		g := NewGraph(all[:n])
		for e := rng.Intn(3 * n); e > 0; e-- {
			g.AddEdge(all[rng.Intn(n)], all[rng.Intn(n)])
		}
		if round%10 == 9 {
			g = nil
		}
		pick := func(from []change.ID) []change.ID {
			var ids []change.ID
			for _, i := range rng.Perm(len(from)) { // a view's order need not be its source's
				if rng.Intn(2) == 0 {
					ids = append(ids, from[i])
				}
			}
			return ids
		}
		ids := pick(all)
		got, want := g.Induced(ids), pairWalk(g, ids)
		if a, b := graphFacts(got, all), graphFacts(want, all); a != b {
			t.Fatalf("round %d: Induced(%v) reads\n%s\nthe pair walk reads\n%s", round, ids, a, b)
		}
		sub := pick(all)
		if a, b := graphFacts(got.Induced(sub), all), graphFacts(pairWalk(want, sub), all); a != b {
			t.Fatalf("round %d: Induced(%v) of the view reads\n%s\nthe pair walk reads\n%s", round, sub, a, b)
		}
		if a, b := graphFacts(got.Clone(), all), graphFacts(want, all); a != b {
			t.Fatalf("round %d: clone of the view reads\n%s\nwant\n%s", round, a, b)
		}
	}
}

// TestInducedViewIsReadOnly: a view borrows another graph's rows, so a write
// through it must stop rather than corrupt the source.
func TestInducedViewIsReadOnly(t *testing.T) {
	g := NewGraph([]change.ID{"a", "b", "c"})
	g.AddEdge("a", "b")
	v := g.Induced([]change.ID{"a", "b"})
	for name, write := range map[string]func(){
		"AddChange": func() { v.AddChange("z") },
		"AddEdge":   func() { v.AddEdge("a", "b") },
		"Isolate":   func() { v.Isolate("a") },
		"Remove":    func() { v.Remove("a") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a view did not panic", name)
				}
			}()
			write()
		}()
	}
	if !g.Conflict("a", "b") || g.Len() != 3 {
		t.Fatalf("source graph changed by rejected writes: %s", graphFacts(g, g.Order()))
	}
}

// TestCloneSharesRowsCopyOnWrite drives random writes into a graph and into
// clones taken along the way, against deep-copied references: no graph may
// ever read differently from its reference, whichever side of a shared row
// is written first.
func TestCloneSharesRowsCopyOnWrite(t *testing.T) {
	deep := func(g *Graph) *Graph {
		out := NewGraph(g.Order())
		for _, a := range g.Order() {
			for _, b := range g.Neighbors(a) {
				out.AddEdge(a, b)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(11))
	all := make([]change.ID, 24)
	for i := range all {
		all[i] = change.ID(fmt.Sprintf("c%02d", i))
	}
	type pair struct{ got, want *Graph }
	graphs := []pair{{NewGraph(all[:12]), NewGraph(all[:12])}}
	for step := 0; step < 600; step++ {
		p := graphs[rng.Intn(len(graphs))]
		a, b := all[rng.Intn(len(all))], all[rng.Intn(len(all))]
		switch op := rng.Intn(10); {
		case op < 5:
			p.got.AddEdge(a, b)
			p.want.AddEdge(a, b)
		case op < 7:
			p.got.Isolate(a)
			p.want.Isolate(a)
		case op < 8:
			p.got.Remove(a, b)
			p.want.Remove(a, b)
		case len(graphs) < 8:
			graphs = append(graphs, pair{p.got.Clone(), deep(p.want)})
		}
		for i, q := range graphs {
			if x, y := graphFacts(q.got, all), graphFacts(q.want, all); x != y {
				t.Fatalf("step %d: graph %d reads\n%s\nits deep-copied reference reads\n%s", step, i, x, y)
			}
		}
	}
}

// TestGraphVertexTableBounded: the vertex numbers of departed members are
// recycled, so 10 000 arrivals through a graph that never holds more than 64
// members at once keep its vertex table at 64 rows, and no recycled number
// carries a departed change's edges. Without the free list a long-lived memo
// would grow one row per change it has ever seen.
func TestGraphVertexTableBounded(t *testing.T) {
	const live, cycles = 64, 10000
	rng := rand.New(rand.NewSource(5))
	g := NewGraph(nil)
	want := map[[2]change.ID]bool{}
	var members []change.ID
	for n := 0; n < cycles; n++ {
		id := change.ID(fmt.Sprintf("c%05d", n))
		g.AddChange(id)
		for e := rng.Intn(4); e > 0 && len(members) > 0; e-- {
			o := members[rng.Intn(len(members))]
			g.AddEdge(id, o)
			want[[2]change.ID{id, o}], want[[2]change.ID{o, id}] = true, true
		}
		members = append(members, id)
		if len(members) == live {
			var gone []change.ID
			for k := 1 + rng.Intn(8); k > 0; k-- {
				i := rng.Intn(len(members))
				gone = append(gone, members[i])
				members = append(members[:i], members[i+1:]...)
			}
			g.Remove(gone...)
		}
		if n%1000 == 999 {
			g.Clone() // the source gives up its rows: later writes copy them
		}
	}
	if len(g.rows) > live || len(g.pos) > live {
		t.Fatalf("vertex table grew to %d rows (%d positions) for at most %d live members", len(g.rows), len(g.pos), live)
	}
	for _, a := range members {
		for _, b := range members {
			if got := g.Conflict(a, b); got != want[[2]change.ID{a, b}] {
				t.Fatalf("edge %s-%s = %v after recycling, want %v", a, b, got, !got)
			}
		}
	}
}

// TestHandedOutGraphNeverChanges: the analyzer keeps one graph across epochs
// and hands out clones that share its rows. Whatever later epochs do to the
// memo — vertices leaving, edges re-derived after head moves — a holder must
// keep reading exactly what it was handed, also while the analyzer is
// writing (run under -race).
func TestHandedOutGraphNeverChanges(t *testing.T) {
	r, pending := chainRepo(8, 6)
	a := New(r)
	universe := make([]change.ID, len(pending))
	for i, c := range pending {
		universe[i] = c.ID
	}
	type handout struct {
		g     *Graph
		facts string
	}
	var held []handout
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for len(pending) > 0 {
		g, failed := a.BuildGraph(pending)
		if len(failed) != 0 {
			t.Fatalf("BuildGraph failed: %v", failed)
		}
		h := handout{g, graphFacts(g, universe)}
		held = append(held, h)
		wg.Add(1)
		go func() { // a reader that overlaps the analyzer's later writes
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := graphFacts(h.g, universe); got != h.facts {
					t.Errorf("a held graph changed under its reader:\n%s\nwas\n%s", got, h.facts)
					return
				}
			}
		}()
		if _, err := r.CommitPatch(r.Head().ID, pending[0].Patch, "dev", "land", time.Time{}); err != nil {
			t.Fatal(err)
		}
		pending = pending[1:]
		if len(held) == 12 {
			break
		}
	}
	a.BuildGraph(pending)
	close(stop)
	wg.Wait()
	for i, h := range held {
		if got := graphFacts(h.g, universe); got != h.facts {
			t.Fatalf("hand-out %d changed after later epochs:\n%s\nwas\n%s", i, got, h.facts)
		}
	}
}

// chainRepo builds subtrees independent single-target packages of depth
// source files each, plus depth pending line inserts per package — one per
// file, so landing one never stops another from applying. The changes of a
// package share its target: subtrees cliques of size depth.
func chainRepo(subtrees, depth int) (*repo.Repo, []*change.Change) {
	files := make(map[string]string, subtrees*(depth+1))
	for s := 0; s < subtrees; s++ {
		srcs := ""
		for f := 0; f < depth; f++ {
			srcs += fmt.Sprintf(",f%02d.go", f)
			files[fmt.Sprintf("s%03d/f%02d.go", s, f)] = "package s\n"
		}
		files[fmt.Sprintf("s%03d/BUILD", s)] = fmt.Sprintf("target t%03d srcs=%s", s, srcs[1:])
	}
	pending := make([]*change.Change, 0, subtrees*depth)
	for f := 0; f < depth; f++ {
		for s := 0; s < subtrees; s++ {
			pending = append(pending, chainChange(len(pending), s, f))
		}
	}
	return repo.New(files), pending
}

func chainChange(n, subtree, file int) *change.Change {
	id := fmt.Sprintf("c%06d", n)
	return &change.Change{ID: change.ID(id), Patch: repo.Patch{Changes: []repo.FileChange{
		repo.InsertLines(fmt.Sprintf("s%03d/f%02d.go", subtree, file), 1, []string{"// " + id}),
	}}}
}

// deepWindowMove is one head move in the deep-window shape: subtrees×depth
// pending chain changes plus one that edits the same file as the oldest,
// which then lands. It returns the graph after the move, the pending count,
// the changes the move re-analysed and the analyzer's counters around the
// BuildGraph that absorbed it.
func deepWindowMove(t *testing.T, subtrees, depth int) (g *Graph, pending int, reanalysed []change.ID, before, after Stats) {
	t.Helper()
	r, cs := chainRepo(subtrees, depth)
	cs = append(cs, chainChange(len(cs), 0, 0)) // same file as cs[0]
	a := New(r)
	bus := events.NewBus(64)
	a.SetEvents(bus)
	if _, failed := a.BuildGraph(cs); len(failed) != 0 {
		t.Fatalf("cold BuildGraph failed: %v", failed)
	}
	if _, err := r.CommitPatch(r.Head().ID, cs[0].Patch, "dev", "land", time.Time{}); err != nil {
		t.Fatal(err)
	}
	cs = cs[1:]
	seq := bus.LastSeq()
	before = a.Stats()
	g, failed := a.BuildGraph(cs)
	if len(failed) != 0 {
		t.Fatalf("BuildGraph after the head move failed: %v", failed)
	}
	after = a.Stats()
	for _, ev := range bus.Since(seq) {
		if ev.Type == events.TypeAnalysisStarted {
			reanalysed = append(reanalysed, ev.Change)
		}
	}
	return g, len(cs), reanalysed, before, after
}

// TestHeadMoveRescansByDegree is the count-based scaling guard: with 1024
// pending over 64 subtrees (chain depth 16), landing one change re-analyses
// none of its 15 chain mates, whose files it did not move, and exactly the
// one pending change that edits the landed file. Re-deriving that vertex's
// edges costs about its degree — not one comparison per pending change,
// which is what the all-pairs walk did.
func TestHeadMoveRescansByDegree(t *testing.T) {
	const subtrees, depth = 64, 16
	g, pending, reanalysed, before, after := deepWindowMove(t, subtrees, depth)

	sameFile := chainChange(subtrees*depth, 0, 0).ID
	if len(reanalysed) != 1 || reanalysed[0] != sameFile {
		t.Fatalf("re-analysed %v, want only %s, the change editing the landed file", reanalysed, sameFile)
	}
	if got := after.AnalyzedChanges - before.AnalyzedChanges; got != 1 {
		t.Fatalf("analysed %d changes, want 1", got)
	}
	const degree = depth - 1 // the landed change's mates, now joined by sameFile
	rescanned := after.PairsRescanned - before.PairsRescanned
	if limit := 2 * degree; rescanned < degree/2 || rescanned > limit {
		t.Fatalf("rescanned %d pairs for one dirty vertex of degree %d (limit %d; an all-pairs walk costs %d)",
			rescanned, degree, limit, pending)
	}
	clean := pending - 1
	if got := after.PairsReused - before.PairsReused; got != clean*(clean-1)/2 {
		t.Fatalf("pairs reused = %d, want %d", got, clean*(clean-1)/2)
	}
	sizes := map[int]int{}
	for _, comp := range g.Components() {
		sizes[len(comp)]++
	}
	if sizes[depth] != subtrees {
		t.Fatalf("component sizes after the move = %v, want %d of %d", sizes, subtrees, depth)
	}
}

// TestHeadMoveCostFlatInPending: the same head move at 1024 and at 4096
// pending (64 and 256 subtrees of chain depth 16) re-analyses the same
// changes and rescans the same number of pairs — its cost is what it moved,
// not how deep the window is.
func TestHeadMoveCostFlatInPending(t *testing.T) {
	const depth = 16
	type cost struct{ reanalysed, rescanned int }
	var costs []cost
	for _, subtrees := range []int{64, 256} {
		_, _, reanalysed, before, after := deepWindowMove(t, subtrees, depth)
		costs = append(costs, cost{len(reanalysed), after.PairsRescanned - before.PairsRescanned})
	}
	if costs[0] != costs[1] || costs[0].reanalysed == 0 {
		t.Fatalf("head move at 1024 pending cost %+v, at 4096 %+v; want equal and non-zero", costs[0], costs[1])
	}
}
