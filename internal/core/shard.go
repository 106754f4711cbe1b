package core

import (
	"fmt"
	"math"
	"math/rand"

	"dnnd/internal/knng"
	"dnnd/internal/wire"
)

// Ownership. As in the paper, both the feature vector and the neighbor
// list of a vertex live on its owning rank. The paper hashes IDs to
// ranks, so at R ranks only 1/R of neighbor pairs share a rank; here a
// rank owns a contiguous range of a random-projection order instead,
// so most near pairs do. A pair one rank owns both ends of is checked
// in place, with no message (phase_checks.go), so the partition decides
// how much of the Section 4.3 protocol runs at all. Correctness never
// depends on the order; only locality does.

// partitionSeed fixes the pivot draws of the order, so every process
// of a world computes the same owner table from the same data.
const partitionSeed = 0x5eed

// ownership is a world's vertex-to-rank map. Every rank of a world
// must hold the same one: the build compares checksums at start (see
// OwnershipError). An in-process world shares one, read-only.
type ownership struct {
	nranks int
	owner  []int32 // owner[id]: the rank that owns id
	index  []int32 // index[id]: id's shard index on its owner
	sum    uint64  // checksum of nranks and owner
}

// newOwnership orders data by a balanced random-projection split and
// cuts the order into nranks ranges whose sizes differ by at most one.
// A split draws two pivot rows a and b from the node with a fixed-seed
// generator and orders the node by a key of each row (see splitKeys):
// the median of the keys, ties broken by ID, cuts the node in two.
// Only nodes that straddle a range boundary split again, so the order
// costs O(N·d·log R). At one rank every vertex is rank 0's.
func newOwnership[T wire.Scalar](data [][]T, nranks int) *ownership {
	n := len(data)
	// Rank r owns positions [r*n/nranks, (r+1)*n/nranks) of the order.
	rangeOf := func(p int) int32 { return int32(((p+1)*nranks - 1) / n) }
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	keys := make([]float64, n) // by ID
	rng := rand.New(rand.NewSource(partitionSeed))
	var split func(lo, hi int)
	split = func(lo, hi int) {
		if rangeOf(lo) == rangeOf(hi-1) {
			return
		}
		seg := order[lo:hi]
		i := rng.Intn(len(seg))
		j := (i + 1 + rng.Intn(len(seg)-1)) % len(seg)
		splitKeys(data, seg, data[seg[i]], data[seg[j]], keys)
		mid := lo + (hi-lo)/2
		selectNth(seg, mid-lo, keys)
		split(lo, mid)
		split(mid, hi)
	}
	if n > 0 {
		split(0, n)
	}

	own := &ownership{nranks: nranks, owner: make([]int32, n), index: make([]int32, n)}
	for p, id := range order {
		own.owner[id] = rangeOf(p)
	}
	counts := make([]int32, nranks)
	own.sum = 14695981039346656037 ^ uint64(nranks) // FNV-1a over the table
	for id, r := range own.owner {
		own.index[id] = counts[r]
		counts[r]++
		own.sum ^= uint64(r)
		own.sum *= 1099511628211
	}
	return own
}

// splitKeys writes the order key of every row x = data[id] of seg to
// keys[id]. On dense rows it is d(x, a) − d(x, b) for squared L2, up to
// a constant shift and a positive scale: the projection x·(b − a).
// Every product is rounded explicitly, which forbids fused
// multiply-adds, so processes on different architectures compute the
// same keys. A NaN key sorts last. On uint32 sets, where most sets
// share no element with either pivot, it is a MinHash (see minHashKey)
// seeded from the pivots' elements: two sets share it with probability
// equal to their Jaccard similarity, so near sets sort together.
func splitKeys[T wire.Scalar](data [][]T, seg []int32, a, b []T, keys []float64) {
	if sets, ok := any(data).([][]uint32); ok {
		seed := uint64(partitionSeed)
		for _, e := range any(a).([]uint32) {
			seed = mix64(seed ^ uint64(e))
		}
		for _, e := range any(b).([]uint32) {
			seed = mix64(seed ^ uint64(e))
		}
		for _, id := range seg {
			keys[id] = minHashKey(sets[id], seed)
		}
		return
	}
	w := make([]float64, min(len(a), len(b)))
	for i := range w {
		w[i] = float64(b[i]) - float64(a[i])
	}
	for _, id := range seg {
		x := data[id]
		var s float64
		for i := range min(len(x), len(w)) {
			s += float64(float64(x[i]) * w[i])
		}
		keys[id] = s
		if math.IsNaN(s) {
			keys[id] = math.Inf(1)
		}
	}
}

// minHashKey is the least mix64(e ^ seed) over the elements e of x,
// shifted to 53 bits so the float64 holds it exactly. An empty set
// sorts last.
func minHashKey(x []uint32, seed uint64) float64 {
	if len(x) == 0 {
		return math.Inf(1)
	}
	m := uint64(math.MaxUint64)
	for _, e := range x {
		m = min(m, mix64(uint64(e)^seed))
	}
	return float64(m >> 11)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// selectNth reorders seg so that seg[:k] holds its k smallest IDs by
// (keys[id], id): quickselect with a median-of-three pivot. The order
// is strict, so which IDs land in seg[:k] does not depend on the
// algorithm.
func selectNth(seg []int32, k int, keys []float64) {
	less := func(x, y int32) bool {
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

// OwnershipError is returned by every rank of a build whose ranks hold
// different owner tables: their shards were cut from different data or
// over different rank counts, so a message could reach a rank that
// does not own its vertex. Lo and Hi are the least and greatest
// checksum across the ranks.
type OwnershipError struct{ Lo, Hi uint64 }

func (e *OwnershipError) Error() string {
	return fmt.Sprintf("core: ranks disagree on vertex ownership (owner-table checksums %x..%x); every rank must partition the same data over the same rank count", e.Lo, e.Hi)
}

// Shard holds one rank's partition of the dataset: the globally dense
// IDs [0, N) it owns, their feature vectors, and the world's owner
// table.
type Shard[T wire.Scalar] struct {
	// N is the global number of points.
	N int
	// IDs lists the owned global IDs in ascending order.
	IDs []knng.ID
	// Vecs holds the owned feature vectors, parallel to IDs.
	Vecs [][]T

	// data is the whole dataset, indexed by global ID, that Partition
	// cut the shard from. An in-process build ships feature vectors by
	// reference through it (see builder.data).
	data [][]T

	rank int
	// own routes every message by vertex and is the O(1) ID→shard-index
	// table.
	own *ownership
}

// lookup returns the shard index of id and whether the shard owns it.
func (s *Shard[T]) lookup(id knng.ID) (int, bool) {
	if int(id) < len(s.own.owner) && s.own.owner[id] == int32(s.rank) {
		return int(s.own.index[id]), true
	}
	return 0, false
}

// Partition cuts the shard owned by rank from a full dataset. Every
// rank of a world calls it with the same data and rank count and
// computes the same owner table: ranks own contiguous ranges of a
// balanced random-projection order of the rows (see newOwnership), not
// hashed IDs as in DNND. The shard keeps a reference to data, and an
// in-process build reads its rows throughout, so data must not be
// modified while a build that uses the shard is running.
func Partition[T wire.Scalar](data [][]T, rank, nranks int) *Shard[T] {
	return cut(data, newOwnership(data, nranks), rank)
}

// cut returns rank's shard of data under the owner table own.
func cut[T wire.Scalar](data [][]T, own *ownership, rank int) *Shard[T] {
	s := &Shard[T]{N: len(data), data: data, rank: rank, own: own}
	for i, r := range own.owner {
		if int(r) == rank {
			s.IDs = append(s.IDs, knng.ID(i))
			s.Vecs = append(s.Vecs, data[i])
		}
	}
	return s
}

// Vec returns the feature vector of an owned global ID; it panics if
// the ID is not owned by this shard (a protocol bug, not user error).
func (s *Shard[T]) Vec(id knng.ID) []T {
	i, ok := s.lookup(id)
	if !ok {
		panic(fmt.Sprintf("core: vector %d not owned by this shard", id))
	}
	return s.Vecs[i]
}

// Owns reports whether the shard holds the given global ID.
func (s *Shard[T]) Owns(id knng.ID) bool {
	_, ok := s.lookup(id)
	return ok
}

// Len returns the number of owned points.
func (s *Shard[T]) Len() int { return len(s.IDs) }
