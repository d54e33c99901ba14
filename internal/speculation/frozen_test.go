package speculation

import (
	"container/heap"
	"sort"

	"mastergreen/internal/change"
)

// frozenPlanner is the per-plan working state of frozenPlan.
type frozenPlanner struct {
	e       *Engine
	pending []*change.Change
	preds   [][]int     // conflicting predecessor positions per change
	pSucc   []float64   // P_succ per change
	pCommit []float64   // global commit-probability estimate per change
	benefit []float64   // per-change benefit B (default 1), §4.2.1
	confRow [][]float64 // confRow[i][t] = P_conf(preds[i][t], i), dense cache
	conf    func(i, j int) float64
}

// frozenPlan is Engine.Plan as it stood before the engine kept its working
// set between calls (minus the deleted Plan.PCommit map): fresh slices per
// build, container/heap over boxed nodes. It is the reference the golden-plan
// and heap differential tests compare the production code against; do not
// "optimise" it.
func frozenPlan(e *Engine, req Request) Plan {
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

	p := &frozenPlanner{e: e, pending: req.Pending}
	p.conf = func(i, j int) float64 {
		return clamp01(e.Predictor.PredictConflict(req.Pending[i], req.Pending[j]))
	}

	// Conflicting predecessors per change, ascending positions.
	switch {
	case req.Preds != nil:
		p.preds = req.Preds
	case req.Conflicts != nil:
		order := make(map[change.ID]int, n)
		for i, c := range req.Pending {
			order[c.ID] = i
		}
		p.preds = make([][]int, n)
		for i, c := range req.Pending {
			for _, pr := range req.Conflicts.ConflictingPredecessors(c.ID) {
				if pi, ok := order[pr]; ok && pi < i {
					p.preds[i] = append(p.preds[i], pi)
				}
			}
			sort.Ints(p.preds[i])
		}
	default:
		p.preds = make([][]int, n)
		for i := range req.Pending {
			p.preds[i] = make([]int, i)
			for j := 0; j < i; j++ {
				p.preds[i][j] = j
			}
		}
	}

	// Dense per-plan conflict cache: the best-first expansion reads these
	// values millions of times, so one predictor call per (pred, change)
	// pair up front keeps the hot loop map-free.
	p.confRow = make([][]float64, n)
	for i := range req.Pending {
		row := make([]float64, len(p.preds[i]))
		for t, j := range p.preds[i] {
			row[t] = p.conf(j, i)
		}
		p.confRow[i] = row
	}

	// Global P_commit in submission order:
	// P_commit(k) = clamp(P_succ(k) − Σ_{j∈D_k} P_conf(j,k)·P_commit(j)).
	p.pSucc = make([]float64, n)
	p.pCommit = make([]float64, n)
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
		weights = append([]float64(nil), weights...)
		if skipExempt != nil {
			skipExempt = append([]bool(nil), skipExempt...)
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
	p.benefit = make([]float64, n)
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
	branch := make([][]int, n)
	fixed := make([][]int, n)
	for i := range req.Pending {
		b := p.preds[i]
		if len(b) > depth {
			fixed[i] = b[:len(b)-depth]
			b = b[len(b)-depth:]
		}
		branch[i] = b
	}

	// Best-first enumeration over bitmask nodes. A root's probability is
	// discounted by its fixed (beyond-depth) predecessors up front: each is
	// pinned to its argmax outcome, which the build's result needs to come
	// true, so P_needed starts at the product of those outcome probabilities
	// rather than a flat 1 (§4.2 applies to every assumption, branched or
	// fixed).
	h := &frozenHeap{}
	for i := range req.Pending {
		prob := 1.0
		for _, f := range fixed[i] {
			if p.pCommit[f] >= 0.5 {
				prob *= p.pCommit[f]
			} else {
				prob *= 1 - p.pCommit[f]
			}
		}
		h.push(node{subject: i, modal: true, prob: prob, value: prob * p.benefit[i]})
	}
	heap.Init(h)

	// With skipping enabled, nodes whose P_needed decays to ≤ 1−τ are
	// dropped: the predictor is ≥τ confident their result would be wasted.
	floor := 0.0
	if e.SkipThreshold > 0 {
		floor = 1 - e.SkipThreshold
	}

	var plannedSubject []bool
	if weights != nil {
		plannedSubject = make([]bool, n)
	}

	pops := 0
	for h.Len() > 0 && len(plan.Builds) < budget && pops < maxPops {
		nd := heap.Pop(h).(node)
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
		br := branch[nd.subject]
		if int(nd.depth) == len(br) {
			plan.Builds = append(plan.Builds, p.finishBuild(nd, branch[nd.subject], fixed[nd.subject]))
			if plannedSubject != nil {
				plannedSubject[nd.subject] = true
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
			heap.Push(h, commitChild)
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
		heap.Push(h, commitChild)
		heap.Push(h, rejectChild)
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
			if len(p.preds[i]) == 0 && !plannedSubject[i] {
				root := node{subject: i, modal: true, prob: 1, value: p.benefit[i]}
				plan.Builds = append(plan.Builds, p.finishBuild(root, nil, nil))
			}
		}
	}
	return plan
}

// contextCommitProb evaluates the probability that predecessor pid commits,
// conditioned on the assumptions already made along the node's path (the
// first nd.depth entries of br, committed iff the corresponding mask bit is
// set). Only pid's conflicting predecessors contribute conflict mass.
func (p *frozenPlanner) contextCommitProb(pid int, nd node, br []int) float64 {
	q := p.pSucc[pid]
	for t, other := range p.preds[pid] {
		// Find other's decision along the path, if branched already.
		status := 0 // 0: outside/undecided, 1: assumed committed, 2: assumed rejected
		for d := 0; d < int(nd.depth); d++ {
			if br[d] == other {
				if nd.mask&(1<<uint(d)) != 0 {
					status = 1
				} else {
					status = 2
				}
				break
			}
		}
		switch status {
		case 1:
			q -= p.confRow[pid][t]
		case 2:
			// no conflict mass: the other change never lands
		default:
			q -= p.confRow[pid][t] * p.pCommit[other]
		}
	}
	return clamp01(q)
}

// finishBuild materializes a completed node into a Build.
func (p *frozenPlanner) finishBuild(nd node, br, fx []int) Build {
	var assumedIdx, rejectedIdx []int
	for d := 0; d < int(nd.depth); d++ {
		if nd.mask&(1<<uint(d)) != 0 {
			assumedIdx = append(assumedIdx, br[d])
		} else {
			rejectedIdx = append(rejectedIdx, br[d])
		}
	}
	// Fixed (beyond-depth) predecessors take their most likely outcome.
	for _, f := range fx {
		if p.pCommit[f] >= 0.5 {
			assumedIdx = append(assumedIdx, f)
		} else {
			rejectedIdx = append(rejectedIdx, f)
		}
	}
	sort.Ints(assumedIdx)
	sort.Ints(rejectedIdx)
	b := Build{
		Subject:            p.pending[nd.subject].ID,
		SubjectIdx:         nd.subject,
		AssumedIdx:         assumedIdx,
		AssumedRejectedIdx: rejectedIdx,
		PNeeded:            nd.prob,
		Value:              nd.value,
	}
	for _, i := range assumedIdx {
		b.Assumed = append(b.Assumed, p.pending[i].ID)
		b.Changes = append(b.Changes, p.pending[i].ID)
	}
	b.Changes = append(b.Changes, b.Subject)
	for _, i := range rejectedIdx {
		b.AssumedRejected = append(b.AssumedRejected, p.pending[i].ID)
	}
	return b
}

// frozenHeap is the container/heap form of nodeHeap, with the same Less.
type frozenHeap []node

func (h frozenHeap) Len() int { return len(h) }
func (h frozenHeap) Less(i, j int) bool {
	if h[i].value != h[j].value {
		return h[i].value > h[j].value
	}
	if h[i].subject != h[j].subject {
		return h[i].subject < h[j].subject
	}
	return h[i].depth < h[j].depth
}
func (h frozenHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *frozenHeap) Push(x interface{}) { *h = append(*h, x.(node)) }
func (h *frozenHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// push appends without sifting (callers heap.Init afterwards).
func (h *frozenHeap) push(n node) { *h = append(*h, n) }
