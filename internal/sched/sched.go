// Package sched sits between the submission queue and the speculation
// engine and owns *what deserves compute next*. The paper's value function
// (Eqs. 1–5) maximizes expected commits per build but treats every pending
// change as equally urgent; sched extends it with priority lanes:
//
//   - Each change carries a Class (P0 hotfix / P1 normal / P2 bulk) and an
//     optional Deadline. Policy turns those into a per-change weight that
//     multiplies the change's benefit B in V = B·P_needed, so the engine's
//     best-first enumeration orders builds by weighted expected commits.
//   - P0 changes are additionally exempt from the predictor's τ-gating
//     (their modal path keeps every hedge), and their huge weight makes the
//     planner's desired set displace — and therefore abort — running
//     speculative builds for other lanes.
//   - Deadline urgency ramps a change's weight up as slack shrinks, so a
//     deadlined P2 eventually overtakes fresh P1 work instead of starving
//     behind a sustained hotfix stream.
//
// The invariant that keeps the prioritized planner bit-for-bit compatible
// with the unprioritized one: a ClassNormal change with no deadline always
// weighs exactly 1, and Weights returns nil for an all-default window, so
// the engine sees the identical request it saw before this package existed.
package sched

import (
	"time"

	"mastergreen/internal/change"
)

// Policy maps a change's class and deadline slack to a value-function
// weight. The zero value is unusable; construct with Default and override
// fields as needed.
type Policy struct {
	// HotfixWeight multiplies P0 changes. It must dominate every achievable
	// P1/P2 weight (including a fully-ramped deadline) so the hotfix lane
	// always plans — and preempts — first.
	HotfixWeight float64
	// BulkWeight multiplies P2 changes (< 1: bulk work yields to normal
	// work when capacity is contended).
	BulkWeight float64
	// UrgencyHorizon is the deadline slack at which the urgency ramp
	// begins. Changes with more slack than this get no deadline boost.
	UrgencyHorizon time.Duration
	// UrgencyMax is the urgency multiplier at (and past) the deadline; the
	// ramp from 1 to UrgencyMax is linear in remaining slack.
	UrgencyMax float64
}

// Default returns the production policy. With these values a fully-ramped
// P2 weighs BulkWeight·UrgencyMax = 6 — above fresh P1 work (1) but still
// far below the hotfix lane (64), preserving strict P0 dominance.
func Default() *Policy {
	// The four-hour horizon matches the scale of a saturated queue: aging
	// must begin while the change can still clear its whole predecessor
	// chain — each hop a build — before the deadline, not in the final
	// minutes when only its own build would fit.
	return &Policy{
		HotfixWeight:   64,
		BulkWeight:     0.375,
		UrgencyHorizon: 4 * time.Hour,
		UrgencyMax:     16,
	}
}

// ClassWeight returns the class component of a change's weight.
func (p *Policy) ClassWeight(c change.Class) float64 {
	switch c {
	case change.ClassHotfix:
		return p.HotfixWeight
	case change.ClassBulk:
		return p.BulkWeight
	default:
		return 1
	}
}

// Urgency returns the deadline component of a change's weight: 1 while
// slack exceeds the horizon, ramping linearly to UrgencyMax at zero slack,
// and staying at UrgencyMax past the deadline (a missed deadline is still
// urgent — the ramp must not collapse or the change starves forever).
func (p *Policy) Urgency(deadline, now time.Time) float64 {
	if deadline.IsZero() {
		return 1
	}
	slack := deadline.Sub(now)
	if slack >= p.UrgencyHorizon {
		return 1
	}
	if slack <= 0 {
		return p.UrgencyMax
	}
	frac := 1 - float64(slack)/float64(p.UrgencyHorizon)
	return 1 + (p.UrgencyMax-1)*frac
}

// Weight combines class weight and deadline urgency. A ClassNormal change
// with no deadline weighs exactly 1 — the compatibility invariant.
func (p *Policy) Weight(c change.Class, deadline, now time.Time) float64 {
	return p.ClassWeight(c) * p.Urgency(deadline, now)
}

// ReachesAt returns the instant a change's weight climbs to w on its
// deadline ramp, or the zero time if it never does. On the ramp the weight
// is linear in time — cw·UrgencyMax at the deadline, falling by
// cw·(UrgencyMax−1) per UrgencyHorizon of slack — so the instant has a
// closed form, and a caller can sleep until the weight it watches moves.
func (p *Policy) ReachesAt(c change.Class, deadline time.Time, w float64) time.Time {
	cw, top := p.ClassWeight(c), p.ClassWeight(c)*p.UrgencyMax
	if deadline.IsZero() || p.UrgencyMax <= 1 || cw <= 0 || w > top {
		return time.Time{}
	}
	return deadline.Add(-time.Duration((top - w) / (top - cw) * float64(p.UrgencyHorizon)))
}

// NoSkip reports whether the class is exempt from predictor τ-gating
// (SkipThreshold branch-skip on the modal path). Wrongly gating a hotfix
// hedge costs a restart exactly when turnaround matters most, so the P0
// lane never gates.
func (p *Policy) NoSkip(c change.Class) bool { return c == change.ClassHotfix }

// Weights computes the per-change weight and τ-exemption arrays for a
// planning window, parallel to pending. It returns (nil, nil) when every
// change is default-lane (ClassNormal, no deadline): the caller then hands
// the speculation engine the identical request it would have built before
// this package existed, which is what keeps committed sets bit-for-bit
// identical in the unprioritized case.
func (p *Policy) Weights(pending []*change.Change, now time.Time) (weights []float64, noSkip []bool) {
	uniform := true
	for _, c := range pending {
		if c.Class != change.ClassNormal || !c.Deadline.IsZero() {
			uniform = false
			break
		}
	}
	if uniform {
		return nil, nil
	}
	weights = make([]float64, len(pending))
	noSkip = make([]bool, len(pending))
	for i, c := range pending {
		weights[i] = p.Weight(c.Class, c.Deadline, now)
		noSkip[i] = p.NoSkip(c.Class)
	}
	return weights, noSkip
}
