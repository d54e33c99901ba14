package repo

import (
	"math/bits"
	"slices"
)

// trieBits is the number of path-hash bits one trie level consumes: an
// interior node has up to 1<<trieBits children.
const trieBits = 5

// node is one node of a snapshot's persistent hash trie, keyed by pathHash
// and consumed trieBits at a time from the most significant end. An interior
// node has one bit of bitmap set per occupied slot and one child per set
// bit, in slot order. A leaf (no kids) holds every file whose path hashes to
// hash, sorted by path: more than one only when two paths' full 64-bit
// hashes collide.
//
// A node is never changed once a Snapshot can reach it: an update copies the
// path from the root to the leaf it touches and shares every other node. The
// shape is canonical — a subtree that holds a single leaf is that leaf — so
// it depends only on the set of paths, not on the order of the updates.
type node struct {
	bitmap uint32
	kids   []*node
	hash   uint64
	files  []file
}

type file struct{ path, content string }

// pathHash is FNV-1a followed by murmur3's 64-bit finalizer, which spreads
// a difference in the last bytes of a path into the high bits the trie
// consumes first. It is the same in every process, so Range visits equal
// trees in the same order on every run.
func pathHash(path string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * 1099511628211
	}
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// slotBit is the bitmap bit of h's slot at the level that starts at bit
// shift (0, trieBits, …; the last level has fewer than trieBits bits left).
func slotBit(h uint64, shift uint) uint32 { return 1 << (h << shift >> (64 - trieBits)) }

// kid returns the child in bit's slot, or nil.
func (n *node) kid(bit uint32) *node {
	if n.bitmap&bit == 0 {
		return nil
	}
	return n.kids[bits.OnesCount32(n.bitmap&(bit-1))]
}

// find returns the index of path in a leaf's files, or where it would go.
func (n *node) find(path string) (int, bool) {
	for i, f := range n.files {
		if f.path >= path {
			return i, f.path == path
		}
	}
	return len(n.files), false
}

// get returns the content of path, whose hash is h, in the trie n rooted at
// level shift.
func (n *node) get(shift uint, h uint64, path string) (string, bool) {
	for ; n != nil && n.kids != nil; shift += trieBits {
		n = n.kid(slotBit(h, shift))
	}
	if n == nil || n.hash != h {
		return "", false
	}
	if i, ok := n.find(path); ok {
		return n.files[i].content, true
	}
	return "", false
}

// with returns the trie n with path (hash h) set to content.
func (n *node) with(shift uint, h uint64, path, content string) *node {
	switch {
	case n == nil:
		return &node{hash: h, files: []file{{path, content}}}
	case n.kids == nil && n.hash == h:
		files := slices.Clone(n.files)
		if i, ok := n.find(path); ok {
			files[i].content = content
		} else {
			files = slices.Insert(files, i, file{path, content})
		}
		return &node{hash: h, files: files}
	case n.kids == nil:
		return join(shift, n, &node{hash: h, files: []file{{path, content}}})
	}
	bit := slotBit(h, shift)
	i := bits.OnesCount32(n.bitmap & (bit - 1))
	kids := slices.Clone(n.kids)
	if n.bitmap&bit == 0 {
		kids = slices.Insert(kids, i, &node{hash: h, files: []file{{path, content}}})
	} else {
		kids[i] = kids[i].with(shift+trieBits, h, path, content)
	}
	return &node{bitmap: n.bitmap | bit, kids: kids}
}

// join returns the trie rooted at level shift that holds the leaves a and b,
// whose hashes differ.
func join(shift uint, a, b *node) *node {
	ba, bb := slotBit(a.hash, shift), slotBit(b.hash, shift)
	switch {
	case ba == bb:
		return &node{bitmap: ba, kids: []*node{join(shift+trieBits, a, b)}}
	case ba > bb:
		a, b = b, a
	}
	return &node{bitmap: ba | bb, kids: []*node{a, b}}
}

// without returns the trie n with path (hash h), which it must hold,
// removed; nil when nothing is left.
func (n *node) without(shift uint, h uint64, path string) *node {
	if n.kids == nil {
		if len(n.files) == 1 {
			return nil
		}
		i, _ := n.find(path)
		return &node{hash: h, files: slices.Delete(slices.Clone(n.files), i, i+1)}
	}
	bit := slotBit(h, shift)
	i := bits.OnesCount32(n.bitmap & (bit - 1))
	kid := n.kids[i].without(shift+trieBits, h, path)
	switch {
	case kid == nil && len(n.kids) == 2 && n.kids[1-i].kids == nil:
		return n.kids[1-i] // one leaf left: it takes this node's place
	case kid == nil:
		return &node{bitmap: n.bitmap &^ bit, kids: slices.Delete(slices.Clone(n.kids), i, i+1)}
	case len(n.kids) == 1 && kid.kids == nil:
		return kid
	}
	kids := slices.Clone(n.kids)
	kids[i] = kid
	return &node{bitmap: n.bitmap, kids: kids}
}

// leaves calls f for every leaf of n, in hash order, until f returns false.
func (n *node) leaves(f func(*node) bool) bool {
	if n == nil {
		return true
	}
	if n.kids == nil {
		return f(n)
	}
	for _, k := range n.kids {
		if !k.leaves(f) {
			return false
		}
	}
	return true
}

// diff appends to out every path whose content differs between the tries a
// and b, both rooted at level shift. It never descends into a subtree the
// two share.
func diff(a, b *node, shift uint, out []string) []string {
	if a == b {
		return out
	}
	if b == nil || b.kids == nil {
		a, b = b, a
	}
	if a != nil && a.kids != nil { // both interior
		for m := a.bitmap | b.bitmap; m != 0; m &= m - 1 {
			bit := m & -m
			out = diff(a.kid(bit), b.kid(bit), shift+trieBits, out)
		}
		return out
	}
	// a is empty or a leaf: look every file of each side up in the other.
	a.leaves(func(l *node) bool {
		for _, f := range l.files {
			if c, ok := b.get(shift, l.hash, f.path); !ok || c != f.content {
				out = append(out, f.path)
			}
		}
		return true
	})
	b.leaves(func(l *node) bool {
		for _, f := range l.files {
			if _, ok := a.get(shift, l.hash, f.path); !ok {
				out = append(out, f.path)
			}
		}
		return true
	})
	return out
}
