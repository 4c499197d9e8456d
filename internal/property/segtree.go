package property

import (
	"hash/fnv"
	"strconv"
)

// segNode is one covering segment in a per-property-name interval treap:
// a BST over (lo, hi, key) with heap-ordered deterministic priorities and
// a subtree-max-endpoint augmentation, giving O(log n) expected insert
// and remove and O(log n + matches) stabbing queries regardless of
// insertion order (the priority depends only on the node's contents, so
// the same segment population always settles into the same shape).
type segNode struct {
	lo, hi float64
	key    string
	dom    Domain // the exact indexed domain behind the covering segment
	prio   uint64
	maxHi  float64 // max hi across this subtree
	left   *segNode
	right  *segNode
}

// segPrio derives a node's heap priority from its identity, keeping the
// treap shape deterministic for a given population.
func segPrio(key, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(key))
	// fmix64 finalizer: FNV alone is weak in the high bits heap order uses.
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return v
}

// segLess orders nodes by (lo, hi, key) — a total order so removals find
// exactly the node they target.
func segLess(a, b *segNode) bool {
	if a.lo != b.lo {
		return a.lo < b.lo
	}
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	return a.key < b.key
}

func (n *segNode) refresh() {
	n.maxHi = n.hi
	if n.left != nil && n.left.maxHi > n.maxHi {
		n.maxHi = n.left.maxHi
	}
	if n.right != nil && n.right.maxHi > n.maxHi {
		n.maxHi = n.right.maxHi
	}
}

func segRotateRight(n *segNode) *segNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.refresh()
	l.refresh()
	return l
}

func segRotateLeft(n *segNode) *segNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.refresh()
	r.refresh()
	return r
}

// segInsert adds nn (a fresh, detached node) and returns the new root.
func segInsert(n, nn *segNode) *segNode {
	if n == nil {
		nn.refresh()
		return nn
	}
	if segLess(nn, n) {
		n.left = segInsert(n.left, nn)
		if n.left.prio > n.prio {
			return segRotateRight(n)
		}
	} else {
		n.right = segInsert(n.right, nn)
		if n.right.prio > n.prio {
			return segRotateLeft(n)
		}
	}
	n.refresh()
	return n
}

// segRemove deletes the node matching (lo, hi, key) exactly, if present,
// and returns the new root.
func segRemove(n *segNode, lo, hi float64, key string) *segNode {
	if n == nil {
		return nil
	}
	probe := segNode{lo: lo, hi: hi, key: key}
	switch {
	case segLess(&probe, n):
		n.left = segRemove(n.left, lo, hi, key)
	case segLess(n, &probe):
		n.right = segRemove(n.right, lo, hi, key)
	default:
		// Found: rotate the higher-priority child up until the node is a
		// leaf, then drop it.
		switch {
		case n.left == nil:
			return n.right
		case n.right == nil:
			return n.left
		case n.left.prio > n.right.prio:
			n = segRotateRight(n)
			n.right = segRemove(n.right, lo, hi, key)
		default:
			n = segRotateLeft(n)
			n.left = segRemove(n.left, lo, hi, key)
		}
	}
	n.refresh()
	return n
}

// segQuery visits every segment overlapping [lo, hi], pruning subtrees
// whose max endpoint ends before lo and right subtrees once the node's
// own start passes hi. fn returning false stops the walk.
func segQuery(n *segNode, lo, hi float64, fn func(n *segNode) bool) bool {
	if n == nil || n.maxHi < lo {
		return true
	}
	if !segQuery(n.left, lo, hi, fn) {
		return false
	}
	if n.lo <= hi {
		if n.hi >= lo && !fn(n) {
			return false
		}
		return segQuery(n.right, lo, hi, fn)
	}
	// n.lo > hi: every right-subtree segment starts even later.
	return true
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
