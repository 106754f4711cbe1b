package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"dnnd/internal/brute"
	"dnnd/internal/dataset"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/wire"
	"dnnd/internal/ygm"
)

// rangeSizes returns how many IDs each rank owns under own.
func rangeSizes(own *ownership) []int {
	sizes := make([]int, own.nranks)
	for _, r := range own.owner {
		sizes[r]++
	}
	return sizes
}

// Ranks own ranges of one order, so their sizes differ by at most one,
// also when there are more ranks than rows.
func TestOwnerBalanced(t *testing.T) {
	data := clusteredData(rand.New(rand.NewSource(17)), 10000, 4, 8)
	for _, c := range []struct{ n, nranks int }{{10000, 2}, {10000, 3}, {10000, 7}, {10000, 16}, {5, 8}} {
		sizes := rangeSizes(newOwnership(data[:c.n], c.nranks))
		lo, hi, sum := slices.Min(sizes), slices.Max(sizes), 0
		for _, s := range sizes {
			sum += s
		}
		if sum != c.n || hi-lo > 1 {
			t.Errorf("n=%d nranks=%d: range sizes %v, want %d in all, within one of each other", c.n, c.nranks, sizes, c.n)
		}
	}
}

func TestPartitionCoversAll(t *testing.T) {
	data := clusteredData(rand.New(rand.NewSource(18)), 500, 3, 4)
	const nranks = 5
	seen := make(map[knng.ID]int)
	var first *ownership
	for r := 0; r < nranks; r++ {
		s := Partition(data, r, nranks)
		if s.N != len(data) {
			t.Fatalf("shard N = %d", s.N)
		}
		if first == nil {
			first = s.own
		} else if !slices.Equal(s.own.owner, first.owner) || s.own.sum != first.sum {
			t.Fatalf("rank %d computed a different owner table than rank 0", r)
		}
		if !slices.IsSorted(s.IDs) {
			t.Fatalf("rank %d: shard IDs not ascending", r)
		}
		for i, id := range s.IDs {
			seen[id]++
			if &s.Vecs[i][0] != &data[id][0] {
				t.Fatalf("shard vector %d is not the dataset row", id)
			}
		}
		for id := range data {
			if owns, want := s.Owns(knng.ID(id)), s.own.owner[id] == int32(r); owns != want {
				t.Fatalf("rank %d: Owns(%d) = %v, owner table says %v", r, id, owns, want)
			}
		}
	}
	if len(seen) != len(data) {
		t.Fatalf("%d ids covered, want %d", len(seen), len(data))
	}
	for id, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("id %d owned by %d ranks", id, cnt)
		}
	}
	if sizes := rangeSizes(first); slices.Max(sizes)-slices.Min(sizes) > 1 {
		t.Fatalf("range sizes %v differ by more than one", sizes)
	}
}

// Vec on an ID the shard does not hold — owned by another rank, or past
// the dataset — is a protocol bug and must say so, not fail as a bare
// index-out-of-range inside the owner table.
func TestShardVecNotOwnedPanics(t *testing.T) {
	data := make([][]float32, 10)
	for i := range data {
		data[i] = []float32{float32(i)}
	}
	s := Partition(data, 0, 3)
	notOwned := []knng.ID{10, 1 << 30}
	for i := range data {
		id := knng.ID(i)
		if s.own.owner[id] != 0 {
			notOwned = append(notOwned, id)
		} else if !s.Owns(id) || s.Vec(id)[0] != float32(i) {
			t.Errorf("owned ID %d: Owns=%v", id, s.Owns(id))
		}
	}
	if len(notOwned) == 2 || s.Len() == 0 {
		t.Fatalf("rank 0 of 3 owns %d of 10 rows; want some owned and some not", s.Len())
	}
	for _, id := range notOwned {
		if s.Owns(id) {
			t.Errorf("Owns(%d) = true", id)
		}
		func() {
			defer func() {
				want := fmt.Sprintf("core: vector %d not owned by this shard", id)
				if r := recover(); r != want {
					t.Errorf("Vec(%d) panicked with %v, want %q", id, r, want)
				}
			}()
			s.Vec(id)
		}()
	}
}

// coOwnedShare is the share of the exact k-NN edges of data whose two
// endpoints the same rank owns.
func coOwnedShare[T wire.Scalar](data [][]T, k int, dist metric.Func[T], nranks int) float64 {
	own := newOwnership(data, nranks)
	var same, all int
	for u, row := range brute.KNNGraph(data, k, dist, 0).TopIDs(k) {
		for _, v := range row {
			all++
			if own.owner[u] == own.owner[v] {
				same++
			}
		}
	}
	return float64(same) / float64(all)
}

// Range ownership keeps most near pairs on one rank, where they are
// checked with no message; hash ownership keeps 1/R of them (0.25 at
// four ranks).
func TestPartitionKeepsNeighborsTogether(t *testing.T) {
	const k = 10
	dense := clusteredData(rand.New(rand.NewSource(19)), 3000, 16, 12)
	for _, nranks := range []int{2, 3, 4} {
		share := coOwnedShare(dense, k, metric.SquaredL2Float32, nranks)
		t.Logf("float32, %d ranks: %.3f of exact %d-NN edges co-owned", nranks, share, k)
		if share < 0.6 {
			t.Errorf("float32, %d ranks: %.3f of exact %d-NN edges co-owned, want >= 0.6", nranks, share, k)
		}
	}
	sets := dataset.PowerLawItemsets(rand.New(rand.NewSource(20)), 1500, 15, 2000, 20)
	share := coOwnedShare(sets, k, metric.JaccardUint32, 4)
	t.Logf("uint32 sets, 4 ranks: %.3f of exact %d-NN edges co-owned", share, k)
	// A MinHash orders sets only by their least hashed element, so sets
	// keep less than dense rows, but still more than the hash's 1/4.
	if share < 0.34 {
		t.Errorf("uint32 sets, 4 ranks: %.3f of exact %d-NN edges co-owned, want >= 0.34", share, k)
	}
}

// A world whose ranks cut their shards from different data fails at
// build start on every rank with an OwnershipError: no rank panics on a
// vertex it does not own, and none waits for a peer that did.
func TestOwnershipMismatchFailsFast(t *testing.T) {
	const nranks = 3
	data := clusteredData(rand.New(rand.NewSource(21)), 600, 8, 6)
	perturbed := slices.Clone(data)
	perturbed[0] = []float32{1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6}
	if newOwnership(perturbed, nranks).sum == newOwnership(data, nranks).sum {
		t.Fatal("perturbing a row left the owner table unchanged; the test needs a different row")
	}
	for _, tc := range []struct {
		name string
		run  worldRunner
	}{{"local", localRunner(nranks)}, {"tcp", tcpRunner(nranks)}} {
		errs := make([]error, nranks)
		var mu sync.Mutex
		done := make(chan error, 1)
		go func() {
			done <- tc.run(func(rank int, c *ygm.Comm) error {
				rows := data
				if rank == 1 {
					rows = perturbed
				}
				_, err := Build(c, Partition(rows, rank, nranks), metric.SquaredL2Float32, DefaultConfig(8))
				mu.Lock()
				errs[rank] = err
				mu.Unlock()
				return err
			})
		}()
		select {
		case err := <-done:
			var oe *OwnershipError
			if !errors.As(err, &oe) {
				t.Fatalf("%s: world returned %v, want an OwnershipError", tc.name, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: build with disagreeing owner tables did not return", tc.name)
		}
		for rank, err := range errs {
			if err == nil || err.Error() != errs[0].Error() {
				t.Errorf("%s: rank %d returned %v, want rank 0's %v", tc.name, rank, err, errs[0])
			}
		}
	}
}

// ownershipSink keeps BenchmarkPartition's result alive.
var ownershipSink *ownership

// BenchmarkPartition times the owner table of 12 000 and 21 600
// deep-shaped rows at four ranks; the deep benchmark workloads build
// over 12 000.
func BenchmarkPartition(b *testing.B) {
	p, err := dataset.ByName("deep")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{12000, 21600} {
		data := dataset.Generate(p, n, 1).F32
		b.Run(fmt.Sprintf("deep-%d", n), func(b *testing.B) {
			for range b.N {
				ownershipSink = newOwnership(data, 4)
			}
		})
	}
}

// ownershipPin folds an owner table's checksum, owner and index columns
// into one FNV-1a hash.
func ownershipPin(own *ownership) uint64 {
	h := own.sum
	for id := range own.owner {
		h = (h ^ uint64(uint32(own.owner[id]))) * 1099511628211
		h = (h ^ uint64(uint32(own.index[id]))) * 1099511628211
	}
	return h
}

// The owner tables of fixed float32, uint8 and uint32 data at 2, 3, 4
// and 7 ranks, pinned bit for bit: every process of a TCP world computes
// its table on its own, so the split must not move between versions
// either. The float32 rows include a NaN and the sets an empty one.
func TestOwnershipPinned(t *testing.T) {
	dense := clusteredData(rand.New(rand.NewSource(31)), 2000, 16, 10)
	dense[5][3] = float32(math.NaN())
	rng := rand.New(rand.NewSource(32))
	bytes := make([][]uint8, 1500)
	for i := range bytes {
		bytes[i] = make([]uint8, 32)
		base := uint8(rng.Intn(4)) * 60
		for j := range bytes[i] {
			bytes[i][j] = base + uint8(rng.Intn(40))
		}
	}
	sets := dataset.PowerLawItemsets(rand.New(rand.NewSource(33)), 1200, 12, 800, 15)
	sets[7] = nil

	ranks := []int{2, 3, 4, 7}
	for _, c := range []struct {
		name string
		pins func(nranks int) uint64
		want []uint64
	}{
		{"float32", func(r int) uint64 { return ownershipPin(newOwnership(dense, r)) }, []uint64{0xc48cfba1346c303, 0x97d513b32b3212db, 0xdfc5f6c8ff288d9b, 0x427aa532bc28abc3}},
		{"uint8", func(r int) uint64 { return ownershipPin(newOwnership(bytes, r)) }, []uint64{0xc694032ea80a8d77, 0x1f9f2a22d3a4cb74, 0x289b87ff172e6cb1, 0x74ad38d4b3762543}},
		{"uint32", func(r int) uint64 { return ownershipPin(newOwnership(sets, r)) }, []uint64{0xe49f9fa02ea73aa3, 0x714e7803a82e436, 0xe41be2fe4846772b, 0x24d1be813427f59a}},
	} {
		for i, nranks := range ranks {
			if got := c.pins(nranks); got != c.want[i] {
				t.Errorf("%s, %d ranks: owner table pin %#x, want %#x", c.name, nranks, got, c.want[i])
			}
		}
	}
}
