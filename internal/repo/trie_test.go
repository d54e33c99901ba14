package repo

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// keyed is a trie entry with a chosen hash, so a test can place paths where
// it wants them instead of where pathHash would.
type keyed struct {
	h    uint64
	path string
}

// trieKeys share prefixes of every length: a and b collide on all 64 bits
// (a collision bucket), c and f differ from them only in the last trie level
// (after 60 shared bits), e after 23 and d in the first level.
const trieH = 0xabcdef0123456780

var trieKeys = []keyed{
	{trieH, "a"}, {trieH, "b"}, {trieH ^ 1, "c"}, {trieH ^ 1<<63, "d"}, {trieH ^ 1<<40, "e"}, {trieH ^ 2, "f"},
}

// shape renders a trie's structure: interior nodes by bitmap, leaves by hash
// and paths.
func shape(n *node) string {
	if n == nil {
		return "nil"
	}
	if n.kids == nil {
		paths := make([]string, len(n.files))
		for i, f := range n.files {
			paths[i] = f.path
		}
		return fmt.Sprintf("L%x%v", n.hash, paths)
	}
	parts := make([]string, len(n.kids))
	for i, k := range n.kids {
		parts[i] = shape(k)
	}
	return fmt.Sprintf("I%x(%s)", n.bitmap, strings.Join(parts, " "))
}

// depth returns the number of levels from n down to its deepest leaf.
func depth(n *node) int {
	d := 0
	for _, k := range n.kids {
		d = max(d, depth(k))
	}
	return d + 1
}

func buildKeyed(keys []keyed, content func(keyed) string) *node {
	var root *node
	for _, k := range keys {
		root = root.with(0, k.h, k.path, content(k))
	}
	return root
}

// TestTrieCollisionsAndCollapse inserts and removes paths with identical and
// prefix-sharing hashes in random orders. Whatever the order, the trie must
// have the one canonical shape of its path set — so removals collapse single
// leaves back up — read every present path and no removed one, and diff
// exactly against a map model.
func TestTrieCollisionsAndCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	name := func(k keyed) string { return k.path }
	full := buildKeyed(trieKeys, name)
	if got := depth(full); got != 64/trieBits+2 {
		t.Fatalf("depth with 60 shared bits = %d, want %d levels", got, 64/trieBits+2)
	}
	if !strings.Contains(shape(full), "[a b]") {
		t.Fatalf("no collision bucket for a and b: %s", shape(full))
	}
	for trial := 0; trial < 50; trial++ {
		keys := append([]keyed(nil), trieKeys...)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		root := buildKeyed(keys, name)
		if shape(root) != shape(full) {
			t.Fatalf("insertion order %v: shape %s, want %s", keys, shape(root), shape(full))
		}
		for len(keys) > 0 {
			gone := keys[0]
			keys = keys[1:]
			before := root
			root = root.without(0, gone.h, gone.path)
			if want := buildKeyed(keys, name); shape(root) != shape(want) {
				t.Fatalf("after removing %s: shape %s, want %s", gone.path, shape(root), shape(want))
			}
			if _, ok := root.get(0, gone.h, gone.path); ok {
				t.Fatalf("removed %s still reads", gone.path)
			}
			if c, ok := before.get(0, gone.h, gone.path); !ok || c != gone.path {
				t.Fatalf("removing %s changed the earlier trie", gone.path)
			}
			for _, k := range keys {
				if c, ok := root.get(0, k.h, k.path); !ok || c != k.path {
					t.Fatalf("after removing %s: get(%s) = %q, %v", gone.path, k.path, c, ok)
				}
			}
			if len(keys) == 2 && keys[0].h == keys[1].h && (root.kids != nil || len(root.files) != 2) {
				t.Fatalf("the collision bucket alone is %s, want one two-file leaf", shape(root))
			}
			if len(keys) == 1 && (root.kids != nil || len(root.files) != 1) {
				t.Fatalf("one path left is %s, want a single leaf", shape(root))
			}
		}
		if root != nil {
			t.Fatalf("empty trie is %s", shape(root))
		}
	}
	// Diffs between random subsets with random contents match the model.
	for trial := 0; trial < 200; trial++ {
		var x, y []keyed
		xm, ym := map[string]string{}, map[string]string{}
		for _, k := range trieKeys {
			if rng.Intn(3) > 0 {
				x = append(x, k)
				xm[k.path] = fmt.Sprint(k.path, rng.Intn(2))
			}
			if rng.Intn(3) > 0 {
				y = append(y, k)
				ym[k.path] = fmt.Sprint(k.path, rng.Intn(2))
			}
		}
		a := buildKeyed(x, func(k keyed) string { return xm[k.path] })
		b := buildKeyed(y, func(k keyed) string { return ym[k.path] })
		var want []string
		for _, k := range trieKeys {
			xc, xok := xm[k.path]
			yc, yok := ym[k.path]
			if xok != yok || xc != yc {
				want = append(want, k.path)
			}
		}
		got := diff(a, b, 0, nil)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("diff(%v, %v) = %v, want %v", xm, ym, got, want)
		}
	}
}
