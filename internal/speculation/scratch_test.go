package speculation

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/predict"
)

// clusteredRequest builds n pending changes in conflict clusters of 16: each
// change conflicts with up to three earlier members of its cluster. It returns
// the request in Preds form and the same relation as a conflict graph.
func clusteredRequest(n, budget int) (Request, *conflict.Graph) {
	pending := mkChanges(n)
	preds := make([][]int, n)
	cg := conflict.NewGraph(nil)
	for _, c := range pending {
		cg.AddChange(c.ID)
	}
	for i := range pending {
		for j := i - 3; j < i; j++ {
			if j >= 0 && j/16 == i/16 {
				preds[i] = append(preds[i], j)
				cg.AddEdge(pending[j].ID, pending[i].ID)
			}
		}
	}
	return Request{Pending: pending, Preds: preds, Budget: budget}, cg
}

// TestPlanSteadyStateAllocs pins the engine's contract that a plan is scratch:
// once an Engine has planned a request of some size, planning it again
// allocates nothing — no per-build slices, no boxed heap nodes, no maps —
// whether its predecessors come as Preds, from a conflict graph or from an
// Induced view.
func TestPlanSteadyStateAllocs(t *testing.T) {
	req, cg := clusteredRequest(256, 128)
	weighted := req
	weighted.Weights = make([]float64, len(req.Pending))
	weighted.NoSkip = make([]bool, len(req.Pending))
	for i := range weighted.Weights {
		weighted.Weights[i] = 1 + float64(i%3)
		weighted.NoSkip[i] = i%7 == 0
	}
	byGraph := Request{Pending: req.Pending, Conflicts: cg, Budget: req.Budget}
	byView := byGraph
	byView.Conflicts = cg.Induced(cg.Order())
	for _, tc := range []struct {
		name string
		req  Request
	}{{"preds", req}, {"weighted", weighted}, {"graph", byGraph}, {"view", byView}} {
		e := New(predict.Static{Success: 0.85, Conflict: 0.05})
		e.SkipThreshold = 0.9
		if got := len(e.Plan(tc.req).Builds); got < 128 {
			t.Fatalf("%s: warm-up planned %d builds, want at least 128", tc.name, got)
		}
		if allocs := testing.AllocsPerRun(20, func() { e.Plan(tc.req) }); allocs != 0 {
			t.Errorf("%s: a warmed Plan allocates %v times, want 0", tc.name, allocs)
		}
	}
}

// TestNodeHeapMatchesContainerHeap drives the typed heap and container/heap
// with the same random streams of pushes and pops. Values, subjects and depths
// come from tiny sets, so most comparisons tie on one, two or all three keys;
// masks make the nodes distinguishable, so a different sift step anywhere
// shows up as a different pop.
func TestNodeHeapMatchesContainerHeap(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		next := uint32(0)
		randNode := func() node {
			next++
			v := float64(rng.Intn(3)) / 2
			return node{subject: rng.Intn(3), depth: uint8(rng.Intn(3)), mask: next, prob: v, value: v}
		}
		var got nodeHeap
		want := &frozenHeap{}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			nd := randNode()
			got = append(got, nd)
			want.push(nd)
		}
		got.init()
		heap.Init(want)
		for op := 0; op < 300; op++ {
			if len(got) == 0 || rng.Intn(5) < 2 {
				nd := randNode()
				got.push(nd)
				heap.Push(want, nd)
			} else if g, w := got.pop(), heap.Pop(want).(node); g != w {
				t.Fatalf("trial %d op %d: popped %+v, container/heap pops %+v", trial, op, g, w)
			}
			if !reflect.DeepEqual([]node(got), []node(*want)) {
				t.Fatalf("trial %d op %d: heap arrays diverge", trial, op)
			}
		}
	}
}

// randomRequest draws one request for TestPlanMatchesFrozen: 1–40 pending
// changes, predecessors as Preds, as a conflict graph (randomGraph) or absent
// (everything conflicts), rows longer than the engine's depth, and optionally
// benefits, weights and τ-gating exemptions.
func randomRequest(rng *rand.Rand, trial int) Request {
	n := 1 + rng.Intn(40)
	pending := make([]*change.Change, n)
	for i := range pending {
		pending[i] = &change.Change{ID: change.ID(fmt.Sprintf("t%d-c%02d", trial, i))}
		if rng.Intn(4) == 0 {
			pending[i].Benefit = 0.5 + 2*rng.Float64()
		}
	}
	req := Request{Pending: pending, Budget: []int{0, 5, 60}[rng.Intn(3)]}
	density := []float64{0.05, 0.3, 0.9}[rng.Intn(3)]
	switch rng.Intn(4) {
	case 0: // no graph: every pair conflicts
		if n > 12 {
			req.Pending = pending[:12]
		}
	case 1:
		req.Conflicts = randomGraph(rng, pending, density)
	default:
		req.Preds = make([][]int, n)
		for i := range pending {
			for j := 0; j < i; j++ {
				if rng.Float64() < density {
					req.Preds[i] = append(req.Preds[i], j)
				}
			}
		}
	}
	n = len(req.Pending)
	if rng.Intn(3) == 0 {
		req.Weights = make([]float64, n)
		for i := range req.Weights {
			req.Weights[i] = []float64{0.25, 1, 1, 4, 16}[rng.Intn(5)]
		}
		if rng.Intn(2) == 0 {
			req.NoSkip = make([]bool, n)
			for i := range req.NoSkip {
				req.NoSkip[i] = rng.Intn(5) == 0
			}
		}
	}
	return req
}

// randomGraph draws a conflict graph for pending in one of five shapes:
// over exactly the pending changes in their order; a strict superset, with
// changes that are not pending interleaved; a graph that does not know some
// pending changes; one in another order; and an Induced view, in which the
// pending changes its source does not know are loose.
func randomGraph(rng *rand.Rand, pending []*change.Change, density float64) *conflict.Graph {
	ids := make([]change.ID, len(pending))
	for i, c := range pending {
		ids[i] = c.ID
	}
	variant := rng.Intn(5)
	switch variant {
	case 1:
		for k := 1 + rng.Intn(8); k > 0; k-- {
			ids = slices.Insert(ids, rng.Intn(len(ids)+1), change.ID(fmt.Sprintf("%s-x%d", ids[0], k)))
		}
	case 2, 4:
		ids = slices.DeleteFunc(ids, func(change.ID) bool { return rng.Intn(4) == 0 })
	case 3:
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	cg := conflict.NewGraph(ids)
	for i := range ids {
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				cg.AddEdge(ids[j], ids[i])
			}
		}
	}
	if variant == 4 {
		all := make([]change.ID, len(pending))
		for i, c := range pending {
			all[i] = c.ID
		}
		return cg.Induced(all)
	}
	return cg
}

// TestPlanMatchesFrozen is the golden-plan test: one long-lived Engine — so
// every plan runs on the previous plan's leftovers — must return, field by
// field, what the frozen allocate-everything copy returns for 400 random
// requests, including q = ½ predictors whose sibling nodes tie in the heap
// and every graph shape randomGraph draws.
func TestPlanMatchesFrozen(t *testing.T) {
	e := &Engine{}
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		req := randomRequest(rng, trial)
		switch rng.Intn(3) {
		case 0:
			e.Predictor = predict.Static{Success: 0.5, Conflict: 0}
		case 1:
			e.Predictor = predict.Static{Success: 0.9, Conflict: 0.02}
		default:
			e.Predictor = newRandPredictor(rng, req.Pending)
		}
		e.MaxSpecDepth = []int{0, 2, 5}[rng.Intn(3)]
		e.SkipThreshold = []float64{0, 0.8, 0.95}[rng.Intn(3)]

		want := frozenPlan(e, req)
		got := e.Plan(req)
		if len(got.Builds) != len(want.Builds) {
			t.Fatalf("trial %d: %d builds, frozen plan has %d", trial, len(got.Builds), len(want.Builds))
		}
		for i := range want.Builds {
			if !reflect.DeepEqual(got.Builds[i], want.Builds[i]) {
				t.Fatalf("trial %d build %d:\n got  %+v\n want %+v", trial, i, got.Builds[i], want.Builds[i])
			}
		}
		if !reflect.DeepEqual(got.PCommitIdx, want.PCommitIdx) ||
			got.BranchesSkipped != want.BranchesSkipped || got.BuildsSkipped != want.BuildsSkipped {
			t.Fatalf("trial %d: PCommitIdx/skip counters differ:\n got  %+v\n want %+v", trial, got, want)
		}
	}
}

// BenchmarkPlanSteadyState measures a warmed Engine re-planning a clustered
// request, with its predecessors as Preds and from a conflict graph, and
// fails if the bytes allocated per plan grow with the number of pending
// changes: what a round allocates must follow what it starts, not what it
// ranks.
func BenchmarkPlanSteadyState(b *testing.B) {
	for _, form := range []string{"preds", "graph"} {
		bytesPerOp := map[int]float64{}
		for _, n := range []int{64, 1024} {
			b.Run(fmt.Sprintf("%s/pending=%d", form, n), func(b *testing.B) {
				req, cg := clusteredRequest(n, 500)
				if form == "graph" {
					req.Preds, req.Conflicts = nil, cg
				}
				e := New(predict.Static{Success: 0.85, Conflict: 0.05})
				e.Plan(req)
				e.Plan(req)
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Plan(req)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				bytesPerOp[n] = float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
			})
		}
		if small, large := bytesPerOp[64], bytesPerOp[1024]; large > 2*small+64 {
			b.Fatalf("a warmed %s Plan allocates %.0f B at 1024 pending and %.0f B at 64: more than 2×", form, large, small)
		}
	}
}
