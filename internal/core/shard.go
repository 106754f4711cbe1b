package core

import (
	"fmt"

	"dnnd/internal/knng"
	"dnnd/internal/wire"
)

// Owner maps a global point ID to its owning rank. As in the paper,
// both the feature vector and the neighbor list of a vertex live on
// that rank. A multiplicative hash spreads consecutive IDs so that
// clustered ID ranges do not skew one rank.
func Owner(id knng.ID, nranks int) int {
	return int(mix32(uint32(id)) % uint32(nranks))
}

// mix32 is the finalizer of splitmix/murmur3: a cheap avalanching
// permutation of uint32.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// Shard holds one rank's partition of the dataset: the globally dense
// IDs [0, N) it owns, their feature vectors, and a reverse index.
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

	// dense is the O(1) ID→shard-index table: dense[id] is the shard
	// index of an owned id, -1 otherwise (one int32 per global point,
	// the same footprint as the builder's visited-mark array). Every
	// Type 1/2/3 message routes through it.
	dense []int32
}

// newDense returns an all-unowned ID→index table for n global points.
func newDense(n int) []int32 {
	d := make([]int32, n)
	for i := range d {
		d[i] = -1
	}
	return d
}

// lookup returns the shard index of id and whether the shard owns it.
func (s *Shard[T]) lookup(id knng.ID) (int, bool) {
	if int(id) < len(s.dense) {
		if i := s.dense[id]; i >= 0 {
			return int(i), true
		}
	}
	return 0, false
}

// Partition splits a full dataset into the shard owned by rank. Every
// rank of a world calls this with the same data; ownership is by ID
// hash, as in DNND. The shard keeps a reference to data, and an
// in-process build reads its rows throughout, so data must not be
// modified while a build that uses the shard is running.
func Partition[T wire.Scalar](data [][]T, rank, nranks int) *Shard[T] {
	s := &Shard[T]{N: len(data), data: data, dense: newDense(len(data))}
	for i, v := range data {
		id := knng.ID(i)
		if Owner(id, nranks) != rank {
			continue
		}
		s.dense[id] = int32(len(s.IDs))
		s.IDs = append(s.IDs, id)
		s.Vecs = append(s.Vecs, v)
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
