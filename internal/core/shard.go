package core

import (
	"fmt"

	"dnnd/internal/knng"
	"dnnd/internal/rptree"
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

// partitionSeed seeds the split, so every process of a world computes
// the same owner table from the same data.
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

// newOwnership cuts the order of a balanced random-projection split
// (rptree.Split) into nranks ranges whose sizes differ by at most one.
// Only nodes that straddle a range boundary split, so the order costs
// O(N·d·log R). At one rank every vertex is rank 0's.
func newOwnership[T wire.Scalar](data [][]T, nranks int) *ownership {
	n := len(data)
	// Rank r owns positions [r*n/nranks, (r+1)*n/nranks) of the order.
	rangeOf := func(p int) int32 { return int32(((p+1)*nranks - 1) / n) }
	order := rptree.Split(data, partitionSeed, func(lo, hi int) bool { return rangeOf(lo) != rangeOf(hi-1) }).Order

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
