// Package speculation implements the paper's speculation engine (§4): given
// the pending changes, the conflict graph, and a probability model, it
// enumerates the speculation graph — one binary decision tree per pending
// change over that change's conflicting predecessors — and returns the
// builds most likely to be needed, in decreasing value order
// (V = Benefit·P_needed, §4.2.1).
//
// The math follows §4.2 exactly on chains:
//
//	P_needed(B_1)     = 1                          (Eq. before 1)
//	P_needed(B_1.2)   = P_succ(C1)                 (Eq. 2)
//	P_needed(B_2)     = 1 − P_succ(C1)             (Eq. 2)
//	P_needed(B_1.2.3) = P_succ(C1)·(P_succ(C2) − P_conf(C1,C2))   (Eq. 5)
//
// and generalizes to the speculation graph of §5: a build for subject C_k
// fixes an assumption (commit or reject) for each conflicting predecessor in
// D_k; the probability of a predecessor committing is evaluated *in context*
// — predecessors assumed rejected contribute no conflict mass, predecessors
// assumed committed contribute their full P_conf, and conflicting changes
// outside D_k contribute expected conflict P_conf·P_commit.
//
// Enumeration is lazy greedy best-first (§7.1): a global max-heap of partial
// assignments, expanded most-probable-first, so the engine never materializes
// the 2^n-node graph; space is O(n + budget). Partial assignments are
// bitmasks over the subject's branching predecessors and the heap holds them
// by value, keeping node expansion allocation-free.
//
// A plan is scratch: the Engine keeps its working set (probability rows, the
// heap, the builds and the arenas their slices point into) between calls and
// overwrites it on the next one, so a steady-state planning round allocates
// nothing. See Engine and Plan for the lifetime rule that follows from it.
package speculation

import (
	"sort"
	"strings"

	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/predict"
)

// DefaultMaxSpecDepth bounds how many conflicting predecessors a single
// subject branches over; beyond it, predecessors are fixed to their most
// likely outcome instead of doubling the tree.
const DefaultMaxSpecDepth = 16

// maxBranchBits is the hard ceiling on branching (bitmask width).
const maxBranchBits = 30

// defaultMaxExpansions bounds total best-first pops per Plan call when the
// caller sets no budget.
const defaultMaxExpansions = 4096

// minSkipAssumptions protects decision-imminent builds from SkipThreshold:
// a node is only skippable once it carries at least this many assumptions.
// One-step hedges (B_2 in §4.2 — the build that becomes decisive the moment
// its single predecessor fails) always stay warm, so a wrong skip's restart
// never lands on the next decision's critical path; the waste skipping
// targets sits in deep speculation chains anyway.
const minSkipAssumptions = 2

// Build is one node of the speculation graph: build steps for
// H ⊕ (Assumed…) ⊕ Subject, whose success or failure decides Subject's fate
// under the assumption that every change in Assumed commits and every change
// in AssumedRejected is rejected.
type Build struct {
	Subject change.ID
	// Assumed are the conflicting predecessors speculated to commit, in
	// submission order.
	Assumed []change.ID
	// AssumedRejected are the remaining conflicting predecessors, speculated
	// to be rejected.
	AssumedRejected []change.ID
	// Changes is Assumed followed by Subject: the patches the build applies
	// on top of HEAD, in submission order.
	Changes []change.ID
	// PNeeded is the probability this build's result will be used (§4.2.1).
	PNeeded float64
	// Value is PNeeded weighted by the subject's Benefit (V = B·P_needed,
	// §4.2.1); the plan is ordered by Value.
	Value float64

	// Index forms of the above (positions in Request.Pending), for callers
	// that work with indices.
	SubjectIdx         int
	AssumedIdx         []int
	AssumedRejectedIdx []int
}

// Key returns a canonical identifier for the build: the applied change IDs
// joined with '+', with rejected assumptions appended after '!'. Two builds
// with equal keys are interchangeable.
func (b Build) Key() string {
	var sb strings.Builder
	for i, id := range b.Changes {
		if i > 0 {
			sb.WriteByte('+')
		}
		sb.WriteString(string(id))
	}
	if len(b.AssumedRejected) > 0 {
		sb.WriteByte('!')
		for i, id := range b.AssumedRejected {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(string(id))
		}
	}
	return sb.String()
}

// Engine computes speculation plans. It serves one caller at a time: Plan
// reuses the engine's working memory, so concurrent Plan calls on one Engine
// race, and an Engine must not be copied once it has planned. Every planner
// and every simulated strategy owns its own.
type Engine struct {
	// Predictor supplies P_succ and P_conf (trained model, oracle, or
	// constant for Speculate-all).
	Predictor predict.Predictor
	// MaxSpecDepth caps branching per subject (DefaultMaxSpecDepth if 0).
	MaxSpecDepth int
	// SkipThreshold, when in (0, 1], gates the speculation tree by the
	// predictor, in two symmetric ways sharing the one threshold τ
	// (DESIGN.md §4j):
	//
	//  1. A predecessor whose in-context commit probability q ≥ τ is not
	//     branched on — only the assume-commit child is explored (at its
	//     honest probability q), and the reject-branch hedge builds are
	//     never planned.
	//  2. A node whose P_needed has decayed to ≤ 1−τ is not built and not
	//     expanded: the predictor is at least τ-confident the result would
	//     never be used. P_needed is monotone non-increasing along the
	//     expansion, so dropping the node drops no viable descendant.
	//
	// Both trade fleet compute for a restart in the unlikely case: a wrong
	// skip leaves no hedge build warm, but the always-run decisive build
	// (P_needed = 1, never skipped) still gates every commit, so greenness
	// is unaffected. Zero disables skipping.
	SkipThreshold float64

	// scratch is the working set of the latest Plan call, kept so the next
	// call reuses its arrays instead of allocating them.
	scratch planner
}

// New creates an Engine with the given predictor.
func New(p predict.Predictor) *Engine { return &Engine{Predictor: p} }

// Request is the input to Plan.
type Request struct {
	// Pending changes in submission order.
	Pending []*change.Change
	// Conflicts is a conflict graph over Pending, which may hold more or
	// fewer changes, in any order; a pending change it lacks conflicts with
	// nothing. A nil graph means "assume every pair conflicts" (§4's
	// speculation tree), unless Preds is supplied.
	Conflicts *conflict.Graph
	// Preds, if non-nil, overrides Conflicts: Preds[i] lists the positions
	// (into Pending) of the conflicting predecessors of Pending[i], in
	// ascending order. This avoids graph construction in hot paths.
	Preds [][]int
	// Budget is the maximum number of builds to return; <= 0 means
	// unlimited (bounded internally by a safety cap).
	Budget int
	// Weights, if non-nil, is parallel to Pending: a scheduling weight
	// (internal/sched — priority class × deadline urgency) multiplied into
	// each change's benefit B, so node values V = B·P_needed order builds
	// by *weighted* expected commits. Nil means all 1 — the unweighted
	// engine, bit-for-bit.
	Weights []float64
	// NoSkip, if non-nil, is parallel to Pending: subjects exempt from
	// SkipThreshold τ-gating (neither floor-drop nor branch-skip prune
	// their trees). The sched layer sets it for the P0 hotfix lane, whose
	// modal path must keep every hedge — a wrong skip there costs a
	// restart exactly when turnaround matters most.
	NoSkip []bool
}

// Plan is the prioritized output of the engine. Its slices — Builds, every
// slice inside a Build, PCommitIdx — point into the engine's working memory
// and are valid until the next Plan call on the same Engine; a caller that
// keeps a build past that (because it started it) copies it first.
type Plan struct {
	// Builds in decreasing Value order (ties: earlier subject first).
	Builds []Build
	// PCommitIdx is each pending change's unconditional commit-probability
	// estimate, indexed by position in Request.Pending.
	PCommitIdx []float64
	// BranchesSkipped counts predecessor branch points collapsed by
	// Engine.SkipThreshold: reject-subtrees that were never explored because
	// the predictor was confident enough the predecessor commits.
	BranchesSkipped int
	// BuildsSkipped counts nodes dropped by Engine.SkipThreshold because
	// their P_needed decayed to ≤ 1−τ: builds the predictor was confident
	// enough would never be used, so they were not planned at all.
	BuildsSkipped int
}

// planner is the per-Plan working state. It lives in Engine.scratch: every
// slice is cut back to length zero (or resized) at the start of a plan and
// keeps its backing array, so steady-state planning allocates nothing.
type planner struct {
	pending []*change.Change
	preds   [][]int     // conflicting predecessor positions per change
	pSucc   []float64   // P_succ per change
	pCommit []float64   // global commit-probability estimate per change
	benefit []float64   // per-change benefit B (default 1), §4.2.1
	confRow [][]float64 // confRow[i][t] = P_conf(preds[i][t], i), dense cache

	predRows   [][]int   // backing for preds when the request carries none
	predArena  []int     // the rows of predRows, back to back
	graphPos   []int     // Request.Conflicts only: pending → graph position
	pendingPos []int     // Request.Conflicts only: graph → pending position
	confArena  []float64 // the rows of confRow, back to back
	weights    []float64 // inherited copy of Request.Weights
	skipExempt []bool    // inherited copy of Request.NoSkip
	branch     [][]int   // per subject: the predecessors branched over
	fixed      [][]int   // per subject: the older ones pinned to argmax
	planned    []bool    // weighted requests: subjects with a build
	heap       nodeHeap

	// builds is the returned Plan.Builds; idxArena and idArena hold the
	// slices inside each Build, back to back.
	builds   []Build
	idxArena []int
	idArena  []change.ID
}

// resize returns s with length n, reusing its backing array when it is large
// enough. The contents are unspecified: callers overwrite every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// run returns a[lo:hi] with its capacity cut to its length, so an append to
// the result can never write into the neighbouring run; nil when empty.
func run[T any](a []T, lo, hi int) []T {
	if lo == hi {
		return nil
	}
	return a[lo:hi:hi]
}

// Plan enumerates the speculation graph best-first and returns up to Budget
// builds. See the package comment for the math, and Plan (the type) for how
// long the result stays valid.
func (e *Engine) Plan(req Request) Plan {
	depth := e.MaxSpecDepth
	if depth <= 0 {
		depth = DefaultMaxSpecDepth
	}
	if depth > maxBranchBits {
		depth = maxBranchBits
	}
	budget := req.Budget
	if budget <= 0 {
		budget = defaultMaxExpansions
	}
	// Each emitted build needs up to depth+1 pops along its path; give the
	// search room for that plus slack, with a floor for small budgets.
	maxPops := budget * (depth + 2)
	if maxPops < defaultMaxExpansions {
		maxPops = defaultMaxExpansions
	}

	n := len(req.Pending)
	plan := Plan{}
	if n == 0 {
		return plan
	}

	p := &e.scratch
	p.pending = req.Pending
	p.builds, p.idxArena, p.idArena = p.builds[:0], p.idxArena[:0], p.idArena[:0]

	// Conflicting predecessors per change, ascending positions.
	switch {
	case req.Preds != nil:
		p.preds = req.Preds
	case req.Conflicts != nil:
		// The graph appends its predecessor positions straight into the
		// arena; each is then translated into a pending position, or
		// dropped if that change is not pending or not earlier.
		cg := req.Conflicts
		p.graphPos, p.pendingPos = resize(p.graphPos, n), resize(p.pendingPos, cg.Len())
		for g := range p.pendingPos {
			p.pendingPos[g] = -1
		}
		for i, c := range req.Pending {
			p.graphPos[i] = cg.Position(c.ID)
			if g := p.graphPos[i]; g >= 0 {
				p.pendingPos[g] = i
			}
		}
		p.predRows, p.predArena = resize(p.predRows, n), p.predArena[:0]
		for i, g := range p.graphPos {
			lo := len(p.predArena)
			if g >= 0 {
				p.predArena = cg.AppendPredecessors(p.predArena, g)
			}
			hi := lo
			for _, g := range p.predArena[lo:] {
				if pi := p.pendingPos[g]; pi >= 0 && pi < i {
					p.predArena[hi] = pi
					hi++
				}
			}
			p.predArena = p.predArena[:hi]
			p.predRows[i] = run(p.predArena, lo, hi)
			sort.Ints(p.predRows[i])
		}
		p.preds = p.predRows
	default:
		// Every earlier change conflicts: row i is the first i positions.
		p.predRows, p.predArena = resize(p.predRows, n), resize(p.predArena, n)
		for i := range req.Pending {
			p.predArena[i] = i
			p.predRows[i] = p.predArena[:i:i]
		}
		p.preds = p.predRows
	}

	// Dense per-plan conflict cache: the best-first expansion reads these
	// values millions of times, so one predictor call per (pred, change)
	// pair up front keeps the hot loop map-free.
	pairs := 0
	for i := range req.Pending {
		pairs += len(p.preds[i])
	}
	p.confRow, p.confArena = resize(p.confRow, n), resize(p.confArena, pairs)
	pairs = 0
	for i, c := range req.Pending {
		row := p.confArena[pairs : pairs+len(p.preds[i])]
		pairs += len(row)
		for t, j := range p.preds[i] {
			row[t] = clamp01(e.Predictor.PredictConflict(req.Pending[j], c))
		}
		p.confRow[i] = row
	}

	// Global P_commit in submission order:
	// P_commit(k) = clamp(P_succ(k) − Σ_{j∈D_k} P_conf(j,k)·P_commit(j)).
	p.pSucc, p.pCommit = resize(p.pSucc, n), resize(p.pCommit, n)
	for i, c := range req.Pending {
		p.pSucc[i] = clamp01(e.Predictor.PredictSuccess(c))
		pc := p.pSucc[i]
		for t, j := range p.preds[i] {
			pc -= p.confRow[i][t] * p.pCommit[j]
		}
		p.pCommit[i] = clamp01(pc)
	}
	plan.PCommitIdx = p.pCommit

	// Per-change benefit weights (default 1), scaled by the scheduler's
	// priority/deadline weight when one is supplied. Weighted requests get
	// priority inheritance: a change's decision is gated by its pending
	// conflicting predecessors, so each predecessor inherits the maximum
	// weight (and τ-gating exemption) of the changes it blocks,
	// transitively. Without this a hotfix's own assumption subtree would
	// crowd the entire budget while the predecessor builds needed to resolve
	// it never rank high enough to be planned — a livelock, not a priority.
	weights, skipExempt := req.Weights, req.NoSkip
	if weights != nil {
		p.weights = resize(p.weights, n)
		copy(p.weights, weights)
		weights = p.weights
		if skipExempt != nil {
			p.skipExempt = resize(p.skipExempt, n)
			copy(p.skipExempt, skipExempt)
			skipExempt = p.skipExempt
		}
		// Inherited weight decays by half per hop: direct predecessors of a
		// hotfix must outrank ordinary work, but in a dense conflict graph
		// full transitive inheritance would spread the top weight over most
		// of the backlog and erase the differentiation it exists to create.
		// The decay is floored at parity (1): a predecessor gating
		// normal-or-better work must itself plan at normal priority, or a
		// down-weighted bulk change at the bottom of a chain starves behind
		// an endless stream of fresh normal roots — and the whole chain
		// above it with it.
		for i := n - 1; i >= 0; i-- {
			for _, j := range p.preds[i] {
				w := weights[i] / 2
				if w < 1 && weights[i] >= 1 {
					w = 1
				}
				if w > weights[j] {
					weights[j] = w
				}
				if skipExempt != nil && skipExempt[i] {
					skipExempt[j] = true
				}
			}
		}
	}
	p.benefit = resize(p.benefit, n)
	for i, c := range req.Pending {
		p.benefit[i] = 1
		if c.Benefit > 0 {
			p.benefit[i] = c.Benefit
		}
		if weights != nil {
			p.benefit[i] *= weights[i]
		}
	}
	noSkip := func(subject int) bool {
		return skipExempt != nil && skipExempt[subject]
	}

	// Per-subject branch sets: the most recent `depth` conflicting
	// predecessors; older ones are fixed to their argmax outcome.
	p.branch, p.fixed = resize(p.branch, n), resize(p.fixed, n)
	for i := range req.Pending {
		b := p.preds[i]
		p.fixed[i] = nil
		if len(b) > depth {
			p.fixed[i] = b[:len(b)-depth]
			b = b[len(b)-depth:]
		}
		p.branch[i] = b
	}

	// Best-first enumeration over bitmask nodes. A root's probability is
	// discounted by its fixed (beyond-depth) predecessors up front: each is
	// pinned to its argmax outcome, which the build's result needs to come
	// true, so P_needed starts at the product of those outcome probabilities
	// rather than a flat 1 (§4.2 applies to every assumption, branched or
	// fixed).
	h := &p.heap
	*h = (*h)[:0]
	for i := range req.Pending {
		prob := 1.0
		for _, f := range p.fixed[i] {
			if p.pCommit[f] >= 0.5 {
				prob *= p.pCommit[f]
			} else {
				prob *= 1 - p.pCommit[f]
			}
		}
		*h = append(*h, node{subject: i, modal: true, prob: prob, value: prob * p.benefit[i]})
	}
	h.init()

	// With skipping enabled, nodes whose P_needed decays to ≤ 1−τ are
	// dropped: the predictor is ≥τ confident their result would be wasted.
	floor := 0.0
	if e.SkipThreshold > 0 {
		floor = 1 - e.SkipThreshold
	}

	if weights != nil {
		p.planned = resize(p.planned, n)
		clear(p.planned)
	}

	pops := 0
	for len(*h) > 0 && len(p.builds) < budget && pops < maxPops {
		nd := h.pop()
		pops++
		if nd.value <= 0 {
			// Max-heap: every remaining node is zero-value too. A build whose
			// result can never be needed is pure waste (§4.2.1).
			break
		}
		if floor > 0 && nd.prob <= floor && !nd.modal && !noSkip(nd.subject) &&
			int(nd.depth) >= minSkipAssumptions {
			// P_needed is monotone non-increasing along expansion, so no
			// descendant of this node is viable either. Two exemptions keep
			// wrong skips off the decision critical path: shallow nodes
			// (minSkipAssumptions — the head-of-queue decisive build and
			// one-step hedges are always planned) and the modal path (a
			// deep conflict cluster keeps one warm build per member in the
			// most likely world, preserving the pipelining that lets the
			// cluster commit back-to-back).
			plan.BuildsSkipped++
			continue
		}
		br := p.branch[nd.subject]
		if int(nd.depth) == len(br) {
			p.finishBuild(nd, br, p.fixed[nd.subject])
			if weights != nil {
				p.planned[nd.subject] = true
			}
			continue
		}
		// Branch on predecessor br[nd.depth]. Its in-context commit
		// probability: conflicts with already assumed-committed predecessors
		// count fully; assumed-rejected count zero; everything else counts
		// at expected value (P_conf·P_commit).
		pid := br[nd.depth]
		q := p.contextCommitProb(pid, nd, br)
		b := p.benefit[nd.subject]
		commitChild := node{
			subject: nd.subject,
			depth:   nd.depth + 1,
			mask:    nd.mask | (1 << uint(nd.depth)),
			modal:   nd.modal && q >= 0.5,
			prob:    nd.prob * q,
			value:   nd.prob * q * b,
		}
		if e.SkipThreshold > 0 && q >= e.SkipThreshold && !noSkip(nd.subject) &&
			int(nd.depth)+1 >= minSkipAssumptions {
			// Predictor-gated skip: the predecessor is near-certain to
			// commit, so the reject-subtree's hedge builds are not worth
			// their compute. The commit child keeps its honest probability
			// q — the plan does not pretend the skip is free. The depth
			// guard keeps the first-level reject hedge (B_2): only deeper
			// reject-subtrees are collapsed.
			h.push(commitChild)
			plan.BranchesSkipped++
			continue
		}
		rejectChild := node{
			subject: nd.subject,
			depth:   nd.depth + 1,
			mask:    nd.mask,
			modal:   nd.modal && q < 0.5,
			prob:    nd.prob * (1 - q),
			value:   nd.prob * (1 - q) * b,
		}
		h.push(commitChild)
		h.push(rejectChild)
	}

	// Liveness under weighting: skewed weights can fill the entire budget
	// with one subtree's builds — all of which the caller may already have
	// finished — while the assumption-free builds that actually decide the
	// bottoms of the pending chains never rank. Every decision chain bottoms
	// out at a change with no pending predecessors, so appending those root
	// builds past the budget guarantees the caller always has a decisive
	// build to start. The unweighted value function cannot produce this
	// starvation (P_needed decay interleaves subjects), so the unweighted
	// plan is left bit-for-bit unchanged.
	if weights != nil {
		for i := range req.Pending {
			if len(p.preds[i]) == 0 && !p.planned[i] {
				p.finishBuild(node{subject: i, modal: true, prob: 1, value: p.benefit[i]}, nil, nil)
			}
		}
	}
	plan.Builds = p.builds
	return plan
}

// contextCommitProb evaluates the probability that predecessor pid commits,
// conditioned on the assumptions already made along the node's path (the
// first nd.depth entries of br, committed iff the corresponding mask bit is
// set). Only pid's conflicting predecessors contribute conflict mass. Both
// pid's predecessor row and br ascend, so one merge walk finds each
// predecessor's decision along the path.
func (p *planner) contextCommitProb(pid int, nd node, br []int) float64 {
	q := p.pSucc[pid]
	path := br[:nd.depth]
	d := 0
	for t, other := range p.preds[pid] {
		for d < len(path) && path[d] < other {
			d++
		}
		switch {
		case d == len(path) || path[d] != other:
			// Outside the path or not yet decided: expected conflict mass.
			q -= p.confRow[pid][t] * p.pCommit[other]
		case nd.mask&(1<<uint(d)) != 0:
			q -= p.confRow[pid][t] // assumed committed
		default:
			// assumed rejected: no conflict mass, the change never lands
		}
	}
	return clamp01(q)
}

// finishBuild materializes a completed node as the next entry of p.builds.
// Its slices are runs of the two arenas — committed then rejected positions
// in idxArena; Changes (whose first len−1 entries are Assumed) then
// AssumedRejected in idArena — so a build costs no allocation of its own.
// fx and br are the older and the newer part of one ascending predecessor
// row, so appending fixed positions before branched ones leaves each run
// ascending without a sort.
func (p *planner) finishBuild(nd node, br, fx []int) {
	lo := len(p.idxArena)
	// Fixed (beyond-depth) predecessors take their most likely outcome.
	for _, f := range fx {
		if p.pCommit[f] >= 0.5 {
			p.idxArena = append(p.idxArena, f)
		}
	}
	for d := 0; d < int(nd.depth); d++ {
		if nd.mask&(1<<uint(d)) != 0 {
			p.idxArena = append(p.idxArena, br[d])
		}
	}
	mid := len(p.idxArena)
	for _, f := range fx {
		if p.pCommit[f] < 0.5 {
			p.idxArena = append(p.idxArena, f)
		}
	}
	for d := 0; d < int(nd.depth); d++ {
		if nd.mask&(1<<uint(d)) == 0 {
			p.idxArena = append(p.idxArena, br[d])
		}
	}
	assumedIdx := run(p.idxArena, lo, mid)
	rejectedIdx := run(p.idxArena, mid, len(p.idxArena))

	subject := p.pending[nd.subject].ID
	lo = len(p.idArena)
	for _, i := range assumedIdx {
		p.idArena = append(p.idArena, p.pending[i].ID)
	}
	p.idArena = append(p.idArena, subject)
	mid = len(p.idArena)
	for _, i := range rejectedIdx {
		p.idArena = append(p.idArena, p.pending[i].ID)
	}
	p.builds = append(p.builds, Build{
		Subject:            subject,
		Assumed:            run(p.idArena, lo, mid-1),
		AssumedRejected:    run(p.idArena, mid, len(p.idArena)),
		Changes:            run(p.idArena, lo, mid),
		PNeeded:            nd.prob,
		Value:              nd.value,
		SubjectIdx:         nd.subject,
		AssumedIdx:         assumedIdx,
		AssumedRejectedIdx: rejectedIdx,
	})
}

// node is a partial assignment in the best-first search: the first `depth`
// branching predecessors of `subject` are decided by `mask` bits. value is
// prob weighted by the subject's benefit and drives the heap order. modal
// marks the path that takes every predecessor's argmax outcome — the
// subject's single most likely decisive context, which SkipThreshold never
// drops no matter how small its absolute probability gets.
type node struct {
	subject int
	depth   uint8
	mask    uint32
	modal   bool
	prob    float64
	value   float64
}

// nodeHeap is a max-heap on node value; ties prefer earlier subjects
// (fairness: older changes first) and then shallower nodes. That order is
// not total — the two children of a q = ½ branch tie on all three — so which
// of two equal nodes pops first is decided by the sift steps themselves:
// init, push and pop make exactly container/heap's comparisons and leave its
// arrangement, on nodes held by value instead of boxed in an interface. A
// sift carries the moving node in hand and shifts the others into the hole
// it leaves, instead of swapping at every level.
type nodeHeap []node

// before reports whether a pops ahead of b.
func before(a, b *node) bool {
	if a.value != b.value {
		return a.value > b.value
	}
	if a.subject != b.subject {
		return a.subject < b.subject
	}
	return a.depth < b.depth
}

// init establishes the heap order over nodes appended without sifting.
func (h nodeHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(h[i], i, n)
	}
}

func (h *nodeHeap) push(nd node) {
	*h = append(*h, nd)
	h.up(nd, len(*h)-1)
}

func (h *nodeHeap) pop() node {
	old := *h
	n := len(old) - 1
	top := old[0]
	if n > 0 {
		old.down(old[n], 0, n)
	}
	*h = old[:n]
	return top
}

// up sifts nd, bound for the hole at j, toward the root.
func (h nodeHeap) up(nd node, j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !before(&nd, &h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = nd
}

// down sifts nd, bound for the hole at i, toward the leaves of h[:n].
func (h nodeHeap) down(nd node, i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && before(&h[r], &h[j]) {
			j = r
		}
		if !before(&h[j], &nd) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = nd
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
