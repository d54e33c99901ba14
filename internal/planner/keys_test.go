package planner

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/speculation"
)

// absoluteKey renders what a dynamic key stands for, in full: this planner's
// commits up to the build's base (clipped to the commits it has — foreign
// commits of a sharded run push a base past them), then the build's changes,
// then the assumed rejections still unresolved. It is the key the planner
// used to build, history and all; dynamicKey must tell two builds apart
// exactly when this does.
func absoluteKey(p *Planner, baseLen int, b speculation.Build) string {
	prefix := min(max(baseLen-p.initialLen, 0), len(p.committed))
	var parts []string
	for _, id := range append(append([]change.ID(nil), p.committed[:prefix]...), b.Changes...) {
		parts = append(parts, string(id))
	}
	key := strings.Join(parts, "+")
	var rej []string
	for _, id := range b.AssumedRejected {
		if _, rejected := p.rejected[id]; !rejected && !p.committedSet[id] {
			rej = append(rej, string(id))
		}
	}
	if len(rej) > 0 {
		key += "!" + strings.Join(rej, ",")
	}
	return key
}

// TestDynamicKeyEqualsAbsoluteKeyEquality drives random sequences of
// speculative build starts, own commits, foreign commits (sharded mode: the
// mainline grows, this planner's history does not) and rejections, and after
// every step checks on every pair of tracked builds and every pending
// change's decisive key that the history-free keys are equal exactly when
// the fully rendered ones are.
func TestDynamicKeyEqualsAbsoluteKeyEquality(t *testing.T) {
	type tracked struct {
		baseLen int
		build   speculation.Build
	}
	var equalPairs, underneath, clipped int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, nil, Config{Budget: 4})
		p := e.planner
		p.initialLen = 3 + rng.Intn(3) // a planner created on a grown mainline
		headLen := p.initialLen
		var pending []*change.Change
		next := 0
		var builds []tracked

		for step := 0; step < 120; step++ {
			for len(pending) < 6 {
				pending = append(pending, &change.Change{ID: change.ID(fmt.Sprintf("c%d", next))})
				next++
			}
			switch op := rng.Intn(10); {
			case op < 5: // start a speculation build on some pending prefix
				var b speculation.Build
				subject := rng.Intn(len(pending))
				for _, c := range pending[:subject] {
					switch rng.Intn(3) {
					case 0:
						b.Assumed = append(b.Assumed, c.ID)
					case 1:
						b.AssumedRejected = append(b.AssumedRejected, c.ID)
					}
				}
				b.Subject = pending[subject].ID
				b.Changes = append(append([]change.ID(nil), b.Assumed...), b.Subject)
				// Mostly at the head; sometimes a base that has since been built on.
				base := headLen - rng.Intn(2)*rng.Intn(3)
				if base < p.initialLen {
					base = p.initialLen
				}
				builds = append(builds, tracked{base, b})
			case op < 7: // this planner commits the oldest pending change
				p.resolve(pending[0], change.StateCommitted, "", "")
				pending = pending[1:]
				headLen++
			case op < 8: // another shard's commit lands
				headLen++
			default: // a pending change is rejected
				i := rng.Intn(len(pending))
				p.resolve(pending[i], change.StateRejected, "broken", "")
				pending = append(pending[:i:i], pending[i+1:]...)
			}

			p.mu.Lock()
			type keyed struct{ got, want string }
			var keys []keyed
			for _, tb := range builds {
				keys = append(keys, keyed{p.dynamicKey(tb.baseLen, tb.build), absoluteKey(p, tb.baseLen, tb.build)})
				if k := tb.baseLen - p.initialLen; k > len(p.committed) {
					clipped++
				} else if k < len(p.committed) && tb.build.Changes[0] == p.committed[k] {
					underneath++ // the build's leading change committed under it
				}
			}
			for _, c := range pending {
				decisive := speculation.Build{Subject: c.ID, Changes: []change.ID{c.ID}}
				keys = append(keys, keyed{p.decisiveKey(c.ID), absoluteKey(p, headLen, decisive)})
			}
			p.mu.Unlock()
			for i := range keys {
				for j := i + 1; j < len(keys); j++ {
					if same := keys[i].want == keys[j].want; same != (keys[i].got == keys[j].got) {
						t.Fatalf("seed %d step %d: keys %q and %q stand for %q and %q",
							seed, step, keys[i].got, keys[j].got, keys[i].want, keys[j].want)
					} else if same {
						equalPairs++
					}
				}
				if len(keys[i].got) > 80 {
					t.Fatalf("seed %d step %d: key %q carries the history", seed, step, keys[i].got)
				}
			}
		}
	}
	// The walk must have met the cases the equivalence is about.
	if equalPairs == 0 || underneath == 0 || clipped == 0 {
		t.Fatalf("walk left a case unexercised: %d equal pairs, %d builds committed underneath, %d clipped prefixes",
			equalPairs, underneath, clipped)
	}
}
