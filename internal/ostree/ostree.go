// Package ostree implements an order-statistic treap augmented with subtree
// sums. It backs the per-machine pending queues of the flow-time scheduler
// (internal/core/flowtime): at every job arrival the dispatch rule needs, for
// a hypothetical insertion position in the shortest-processing-time order,
// the prefix sum Σ_{ℓ≺j} p_iℓ and the count |{ℓ ≻ j}| — both O(log n) here —
// plus delete-min (start next job) and delete-max (Rejection Rule 2).
//
// Keys order by (P, Release, ID), all strict, so the order is total whenever
// IDs are unique.
//
// Each element may carry an auxiliary value pair aggregated alongside the
// P-sums (InsertVals / RankStatsVals); the weighted scheduler stores
// (processing time, weight) there while keying by density. Nodes are
// allocated from an internal chunked arena and recycled through a free list,
// so steady-state insert/delete cycles do not allocate.
package ostree

// Key identifies an element in SPT order: processing time first, then
// release time, then job id as the final tie-break.
type Key struct {
	P       float64
	Release float64
	ID      int
}

// Less reports strict order between keys.
func (k Key) Less(o Key) bool {
	if k.P != o.P {
		return k.P < o.P
	}
	if k.Release != o.Release {
		return k.Release < o.Release
	}
	return k.ID < o.ID
}

type node struct {
	key         Key
	prio        uint64
	left, right *node
	count       int
	sumP        float64
	valA, valB  float64
	sumA, sumB  float64
}

func (n *node) update() {
	n.count = 1
	n.sumP = n.key.P
	n.sumA = n.valA
	n.sumB = n.valB
	if l := n.left; l != nil {
		n.count += l.count
		n.sumP += l.sumP
		n.sumA += l.sumA
		n.sumB += l.sumB
	}
	if r := n.right; r != nil {
		n.count += r.count
		n.sumP += r.sumP
		n.sumA += r.sumA
		n.sumB += r.sumB
	}
}

// arenaChunk is the node-block size of the arena. Large enough to amortize
// allocation, small enough not to waste memory on tiny trees.
const arenaChunk = 64

// Tree is an order-statistic treap. The zero value is not ready; use New so
// the priority stream is seeded deterministically.
type Tree struct {
	root *node
	rng  uint64

	// free chains recycled nodes through their right pointers; chunk is the
	// tail of the current arena block. Insert never allocates while either
	// has capacity.
	free  *node
	chunk []node
}

// New returns an empty tree with a deterministic priority stream derived
// from seed.
func New(seed uint64) *Tree {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Tree{rng: seed}
}

// splitmix64 advances the internal PRNG.
func (t *Tree) next() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (t *Tree) alloc(k Key, a, b float64) *node {
	var n *node
	if t.free != nil {
		n = t.free
		t.free = n.right
		n.left, n.right = nil, nil
	} else {
		if len(t.chunk) == 0 {
			t.chunk = make([]node, arenaChunk)
		}
		n = &t.chunk[0]
		t.chunk = t.chunk[1:]
	}
	n.key = k
	n.prio = t.next()
	n.valA, n.valB = a, b
	n.update()
	return n
}

func (t *Tree) recycle(n *node) {
	n.left = nil
	n.right = t.free
	t.free = n
}

// Len reports the number of stored elements.
func (t *Tree) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.count
}

// SumP reports the sum of P over all stored elements.
func (t *Tree) SumP() float64 {
	if t.root == nil {
		return 0
	}
	return t.root.sumP
}

// SumVals reports the sums of the auxiliary value pair over all elements.
func (t *Tree) SumVals() (a, b float64) {
	if t.root == nil {
		return 0, 0
	}
	return t.root.sumA, t.root.sumB
}

func merge(l, r *node) *node {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.prio > r.prio {
		l.right = merge(l.right, r)
		l.update()
		return l
	}
	r.left = merge(l, r.left)
	r.update()
	return r
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.update()
	l.update()
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.update()
	r.update()
	return r
}

// insertNode descends once to the leaf position, bumping aggregates
// incrementally on the way down (so no unwind recomputation is needed), then
// restores the heap property with expected O(1) rotations. hasVals gates the
// auxiliary-sum bumps so value-free trees never touch the cold half of the
// node.
func insertNode(n, nn *node, hasVals bool) *node {
	if n == nil {
		return nn
	}
	n.count++
	n.sumP += nn.key.P
	if hasVals {
		n.sumA += nn.valA
		n.sumB += nn.valB
	}
	if nn.key.Less(n.key) {
		n.left = insertNode(n.left, nn, hasVals)
		if n.left.prio > n.prio {
			n = rotateRight(n)
		}
	} else {
		n.right = insertNode(n.right, nn, hasVals)
		if n.right.prio > n.prio {
			n = rotateLeft(n)
		}
	}
	return n
}

// Insert adds a key. Inserting a key already present corrupts order-statistic
// queries; callers must keep IDs unique.
func (t *Tree) Insert(k Key) {
	t.root = insertNode(t.root, t.alloc(k, 0, 0), false)
}

// InsertVals adds a key carrying the auxiliary value pair (a, b).
func (t *Tree) InsertVals(k Key, a, b float64) {
	t.root = insertNode(t.root, t.alloc(k, a, b), a != 0 || b != 0)
}

func deleteKey(n *node, k Key) (nn, removed *node) {
	if n == nil {
		return nil, nil
	}
	if n.key == k {
		return merge(n.left, n.right), n
	}
	if k.Less(n.key) {
		n.left, removed = deleteKey(n.left, k)
	} else {
		n.right, removed = deleteKey(n.right, k)
	}
	n.update()
	return n, removed
}

// Delete removes the exact key if present and reports whether it was found.
func (t *Tree) Delete(k Key) bool {
	root, removed := deleteKey(t.root, k)
	t.root = root
	if removed == nil {
		return false
	}
	t.recycle(removed)
	return true
}

// Min returns the smallest key. ok is false on an empty tree.
func (t *Tree) Min() (k Key, ok bool) {
	n := t.root
	if n == nil {
		return Key{}, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, true
}

// Max returns the largest key. ok is false on an empty tree.
func (t *Tree) Max() (k Key, ok bool) {
	n := t.root
	if n == nil {
		return Key{}, false
	}
	for n.right != nil {
		n = n.right
	}
	return n.key, true
}

func deleteMin(n *node) (nn, removed *node) {
	if n.left == nil {
		return n.right, n
	}
	n.left, removed = deleteMin(n.left)
	n.update()
	return n, removed
}

func deleteMax(n *node) (nn, removed *node) {
	if n.right == nil {
		return n.left, n
	}
	n.right, removed = deleteMax(n.right)
	n.update()
	return n, removed
}

// DeleteMin removes and returns the smallest key in one left-spine descent.
func (t *Tree) DeleteMin() (Key, bool) {
	if t.root == nil {
		return Key{}, false
	}
	root, rem := deleteMin(t.root)
	t.root = root
	k := rem.key
	t.recycle(rem)
	return k, true
}

// DeleteMax removes and returns the largest key in one right-spine descent.
func (t *Tree) DeleteMax() (Key, bool) {
	if t.root == nil {
		return Key{}, false
	}
	root, rem := deleteMax(t.root)
	t.root = root
	k := rem.key
	t.recycle(rem)
	return k, true
}

// RankStats returns, for a hypothetical insertion of k, the number and P-sum
// of stored elements strictly before k, and the number strictly after k.
// k itself need not be stored.
func (t *Tree) RankStats(k Key) (before int, sumPBefore float64, after int) {
	n := t.root
	present := false
	for n != nil {
		if n.key.Less(k) {
			before++
			sumPBefore += n.key.P
			if l := n.left; l != nil {
				before += l.count
				sumPBefore += l.sumP
			}
			n = n.right
		} else {
			if n.key == k {
				present = true
			}
			n = n.left
		}
	}
	after = t.Len() - before
	if present {
		after--
	}
	return before, sumPBefore, after
}

// RankStatsVals is RankStats extended with the auxiliary value-pair sums over
// the elements strictly before k.
func (t *Tree) RankStatsVals(k Key) (before int, sumPBefore, sumABefore, sumBBefore float64, after int) {
	n := t.root
	present := false
	for n != nil {
		if n.key.Less(k) {
			before++
			sumPBefore += n.key.P
			sumABefore += n.valA
			sumBBefore += n.valB
			if l := n.left; l != nil {
				before += l.count
				sumPBefore += l.sumP
				sumABefore += l.sumA
				sumBBefore += l.sumB
			}
			n = n.right
		} else {
			if n.key == k {
				present = true
			}
			n = n.left
		}
	}
	after = t.Len() - before
	if present {
		after--
	}
	return before, sumPBefore, sumABefore, sumBBefore, after
}

// Ascend calls fn on every key in order, stopping early if fn returns false.
func (t *Tree) Ascend(fn func(Key) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == nil {
			return true
		}
		if !walk(n.left) {
			return false
		}
		if !fn(n.key) {
			return false
		}
		return walk(n.right)
	}
	walk(t.root)
}

// Keys returns all keys in order (testing helper).
func (t *Tree) Keys() []Key {
	out := make([]Key, 0, t.Len())
	t.Ascend(func(k Key) bool { out = append(out, k); return true })
	return out
}
