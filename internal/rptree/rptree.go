// Package rptree is the one random-projection split: a balanced median
// split of a dataset's rows, on all three element types. Cut at rank
// boundaries, its order decides which rank owns which vertex
// (core.Partition). Cut to leaves of at most 30 rows, a forest of
// such trees supplies query-specific search entry points, the technique
// PyNNDescent uses (paper Section 6: "PyNNDescent divides data points
// using a random projection tree and selects the search's starting
// point based on this information").
package rptree

import (
	"math"
	"math/rand"
	"slices"

	"dnnd/internal/knng"
	"dnnd/internal/splitmix"
	"dnnd/internal/wire"
)

// leafSize caps the rows of a forest leaf; leaves hold leafSize/2 to
// leafSize rows.
const leafSize = 30

// Tree is a balanced random-projection split of a dataset's rows. Each
// node holds one contiguous range of Order, and a split node cuts its
// range at the median.
type Tree[T wire.Scalar] struct {
	// Order lists every row ID in split order.
	Order []knng.ID
	nodes []node[T] // nodes[0] is the root
}

// node is the range [lo, hi) of a tree's Order. A split node also keeps
// what a descent needs: its pivot key data and the key of its median
// row, the first row of its right child.
type node[T wire.Scalar] struct {
	lo, hi      int32
	left, right int32     // child node indices; 0 at a leaf, as the root is no child
	w           []float64 // b − a on dense rows
	seed        uint64    // MinHash seed on uint32 sets
	median      float64
}

// Split orders data by a balanced random-projection split. A node of
// rows [lo, hi) of the order splits while it holds two rows or more and
// more(lo, hi) reports true. It draws two distinct pivot rows a and b
// with a generator seeded by seed, keys each of its rows (see key), and
// cuts at mid = lo + (hi−lo)/2: [lo, mid) gets the rows of least key,
// ties broken by ID. Nodes split depth first, left before right, so the
// tree depends only on data, seed and more.
func Split[T wire.Scalar](data [][]T, seed int64, more func(lo, hi int) bool) *Tree[T] {
	t := &Tree[T]{Order: make([]knng.ID, len(data))}
	for i := range t.Order {
		t.Order[i] = knng.ID(i)
	}
	keys := make([]float64, len(data)) // by ID
	rng := rand.New(rand.NewSource(seed))
	var split func(lo, hi int) int32
	split = func(lo, hi int) int32 {
		at := int32(len(t.nodes))
		t.nodes = append(t.nodes, node[T]{lo: int32(lo), hi: int32(hi)})
		if hi-lo < 2 || !more(lo, hi) {
			return at
		}
		seg := t.Order[lo:hi]
		i := rng.Intn(len(seg))
		j := (i + 1 + rng.Intn(len(seg)-1)) % len(seg)
		nd := pivot(data[seg[i]], data[seg[j]], uint64(seed))
		nd.lo, nd.hi = int32(lo), int32(hi)
		for _, id := range seg {
			keys[id] = nd.key(data[id])
		}
		mid := lo + (hi-lo)/2
		selectNth(seg, mid-lo, keys)
		nd.median = keys[t.Order[mid]]
		nd.left = split(lo, mid)
		nd.right = split(mid, hi)
		t.nodes[at] = nd
		return at
	}
	if len(data) > 0 {
		split(0, len(data))
	}
	return t
}

// pivot returns the split node whose key orders rows by pivots a and b:
// it keeps b − a of dense rows, and of sets a MinHash seed mixed from
// seed and the pivots' elements.
func pivot[T wire.Scalar](a, b []T, seed uint64) node[T] {
	if as, ok := any(a).([]uint32); ok {
		for _, e := range as {
			seed = splitmix.Mix64(seed ^ uint64(e))
		}
		for _, e := range any(b).([]uint32) {
			seed = splitmix.Mix64(seed ^ uint64(e))
		}
		return node[T]{seed: seed}
	}
	w := make([]float64, min(len(a), len(b)))
	for i := range w {
		w[i] = float64(b[i]) - float64(a[i])
	}
	return node[T]{w: w}
}

// key is the order key of row x at a split node. On dense rows it is
// d(x, a) − d(x, b) for squared L2, up to a constant shift and a
// positive scale: the projection x·(b − a). Every product is rounded
// explicitly, which forbids fused multiply-adds, so processes on
// different architectures compute the same keys. A NaN key sorts last.
// On uint32 sets, where most sets share no element with either pivot,
// it is a MinHash (see minHashKey): two sets share it with probability
// equal to their Jaccard similarity, so near sets sort together.
func (nd *node[T]) key(x []T) float64 {
	if set, ok := any(x).([]uint32); ok {
		return minHashKey(set, nd.seed)
	}
	var s float64
	for i := range min(len(x), len(nd.w)) {
		s += float64(float64(x[i]) * nd.w[i])
	}
	if math.IsNaN(s) {
		return math.Inf(1)
	}
	return s
}

// minHashKey is the least Mix64(e ^ seed) over the elements e of x,
// shifted to 53 bits so the float64 holds it exactly. An empty set
// sorts last.
func minHashKey(x []uint32, seed uint64) float64 {
	if len(x) == 0 {
		return math.Inf(1)
	}
	m := uint64(math.MaxUint64)
	for _, e := range x {
		m = min(m, splitmix.Mix64(uint64(e)^seed))
	}
	return float64(m >> 11)
}

// selectNth reorders seg so that seg[:k] holds its k smallest IDs by
// (keys[id], id) and seg[k] the next: quickselect with a median-of-three
// pivot. The order is strict, so which IDs land in seg[:k] does not
// depend on the algorithm.
func selectNth(seg []knng.ID, k int, keys []float64) {
	less := func(x, y knng.ID) bool {
		if keys[x] != keys[y] {
			return keys[x] < keys[y]
		}
		return x < y
	}
	lo, hi := 0, len(seg)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if less(seg[mid], seg[lo]) {
			seg[mid], seg[lo] = seg[lo], seg[mid]
		}
		if less(seg[hi], seg[lo]) {
			seg[hi], seg[lo] = seg[lo], seg[hi]
		}
		if less(seg[mid], seg[hi]) {
			seg[mid], seg[hi] = seg[hi], seg[mid]
		}
		p, s := seg[hi], lo
		for i := lo; i < hi; i++ {
			if less(seg[i], p) {
				seg[s], seg[i] = seg[i], seg[s]
				s++
			}
		}
		seg[s], seg[hi] = seg[hi], seg[s]
		switch {
		case k == s:
			return
		case k < s:
			hi = s - 1
		default:
			lo = s + 1
		}
	}
}

// Leaves calls visit with the rows of each leaf q descends to, left to
// right, until visit returns false. At each split node q goes left when
// its key is below the median row's and right when above it; on a tie it
// goes both ways, since rows that tie the median sit on both sides of
// the cut (ordered by ID). A row therefore always reaches its own leaf.
// A tree over no rows has no leaf.
func (t *Tree[T]) Leaves(q []T, visit func(leaf []knng.ID) bool) {
	if len(t.nodes) > 0 {
		t.descend(0, q, visit)
	}
}

// descend visits the leaves below node at that q reaches, and reports
// whether visit asked to go on.
func (t *Tree[T]) descend(at int32, q []T, visit func([]knng.ID) bool) bool {
	nd := &t.nodes[at]
	if nd.left == 0 {
		return visit(t.Order[nd.lo:nd.hi])
	}
	k := nd.key(q)
	if k <= nd.median && !t.descend(nd.left, q, visit) {
		return false
	}
	return k < nd.median || t.descend(nd.right, q, visit)
}

// Forest is a set of trees over one dataset, each split down to leaves
// of at most leafSize rows.
type Forest[T wire.Scalar] []*Tree[T]

// NewForest splits data into the given number of trees; tree i draws
// its pivots from seed + i.
func NewForest[T wire.Scalar](data [][]T, trees int, seed int64) Forest[T] {
	f := make(Forest[T], trees)
	for i := range f {
		f[i] = Split(data, seed+int64(i), func(lo, hi int) bool { return hi-lo > leafSize })
	}
	return f
}

// Candidates returns up to max entry-point candidates for q (all of
// them when max <= 0): the rows of q's leaves in each tree, without
// repeats, in tree order.
func (f Forest[T]) Candidates(q []T, max int) []knng.ID {
	var out []knng.ID
	collect := func(leaf []knng.ID) bool {
		for _, id := range leaf {
			if slices.Contains(out, id) {
				continue
			}
			out = append(out, id)
			if len(out) == max {
				return false
			}
		}
		return true
	}
	for _, t := range f {
		t.Leaves(q, collect)
		if len(out) == max {
			break
		}
	}
	return out
}
