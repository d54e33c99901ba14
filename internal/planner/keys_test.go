package planner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/speculation"
)

// keyParts is what a dynamic key stands for, spelled out: the build's
// changes that have not committed, in apply order, and its assumed
// rejections that have not been confirmed (unresolved, or falsified by a
// commit).
type keyParts struct {
	uncommitted, unconfirmed []change.ID
}

func (k keyParts) equal(o keyParts) bool {
	return slices.Equal(k.uncommitted, o.uncommitted) && slices.Equal(k.unconfirmed, o.unconfirmed)
}

// partsOf computes keyParts from the planner's resolutions directly.
func partsOf(p *Planner, b speculation.Build) keyParts {
	var k keyParts
	for _, id := range b.Changes {
		if !p.committedSet[id] {
			k.uncommitted = append(k.uncommitted, id)
		}
	}
	for _, id := range b.AssumedRejected {
		if _, rejected := p.rejected[id]; !rejected {
			k.unconfirmed = append(k.unconfirmed, id)
		}
	}
	return k
}

// TestDynamicKeyEqualsAbsoluteKeyEquality drives random sequences of
// speculative build starts, commits and rejections, and after every step
// checks on every pair of tracked builds and every pending change's decisive
// build (the change alone) that two keys are equal exactly when their
// uncommitted apply lists and their unconfirmed rejections are. Keys name no
// base: a build keeps its key while the head moves, and a key's size is that
// of the build, never of the history.
func TestDynamicKeyEqualsAbsoluteKeyEquality(t *testing.T) {
	var equalPairs, partlyCommitted, decisiveSpeculative, falsified int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, nil, Config{Budget: 4})
		p := e.planner
		var pending []*change.Change
		next := 0
		var builds []speculation.Build

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
				builds = append(builds, b)
			case op < 8: // the oldest pending change, or any one, commits
				i := 0
				if op == 7 {
					i = rng.Intn(len(pending))
				}
				p.resolve(pending[i], change.StateCommitted, "", "")
				pending = append(pending[:i:i], pending[i+1:]...)
			default: // a pending change is rejected
				i := rng.Intn(len(pending))
				p.resolve(pending[i], change.StateRejected, "broken", "")
				pending = append(pending[:i:i], pending[i+1:]...)
			}

			p.mu.Lock()
			type keyed struct {
				got  string
				want keyParts
			}
			var keys []keyed
			for _, b := range builds {
				k := keyed{p.dynamicKey(b), partsOf(p, b)}
				keys = append(keys, k)
				for _, id := range b.AssumedRejected {
					if p.committedSet[id] {
						falsified++ // keeps "!id": never a decisive key
						break
					}
				}
				if len(k.want.uncommitted) < len(b.Changes) {
					partlyCommitted++
					if k.got == string(b.Subject) && len(b.Changes) > 1 {
						decisiveSpeculative++ // a speculation build became decisive
					}
				}
			}
			for _, c := range pending {
				decisive := speculation.Build{Subject: c.ID, Changes: []change.ID{c.ID}}
				keys = append(keys, keyed{string(c.ID), partsOf(p, decisive)})
			}
			p.mu.Unlock()
			for i := range keys {
				for j := i + 1; j < len(keys); j++ {
					if same := keys[i].want.equal(keys[j].want); same != (keys[i].got == keys[j].got) {
						t.Fatalf("seed %d step %d: keys %q and %q stand for %+v and %+v",
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
	if equalPairs == 0 || partlyCommitted == 0 || decisiveSpeculative == 0 || falsified == 0 {
		t.Fatalf("walk left a case unexercised: %d equal pairs, %d builds with committed changes, %d speculation builds turned decisive, %d falsified",
			equalPairs, partlyCommitted, decisiveSpeculative, falsified)
	}
}
