package rptree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dnnd/internal/knng"
	"dnnd/internal/metric"
)

func clustered(rng *rand.Rand, n, dim int) [][]float32 {
	data := make([][]float32, n)
	for i := range data {
		base := float32(rng.Intn(6))
		v := make([]float32, dim)
		for j := range v {
			v[j] = base + float32(rng.NormFloat64())*0.4
		}
		data[i] = v
	}
	return data
}

// leaves returns the row ranges of t's leaves, left to right.
func leaves[T float32 | uint8 | uint32](t *Tree[T]) [][]knng.ID {
	var out [][]knng.ID
	for _, nd := range t.nodes {
		if nd.left == 0 {
			out = append(out, t.Order[nd.lo:nd.hi])
		}
	}
	return out
}

// reaches reports whether q's descent of t reaches the leaf holding id.
func reaches[T float32 | uint8 | uint32](t *Tree[T], q []T, id int) bool {
	found := false
	t.Leaves(q, func(leaf []knng.ID) bool {
		found = slices.Contains(leaf, knng.ID(id))
		return !found
	})
	return found
}

// checkLeaves reports whether the leaves of every tree of f partition
// [0, n), each holding leafSize/2 to leafSize rows when n > leafSize.
func checkLeaves[T float32 | uint8 | uint32](t *testing.T, f Forest[T], n int) {
	t.Helper()
	for ti, tree := range f {
		seen := make([]int, n)
		for _, leaf := range leaves(tree) {
			if len(leaf) > leafSize || (n > leafSize && len(leaf) < leafSize/2) {
				t.Errorf("tree %d: leaf of %d rows, want %d to %d", ti, len(leaf), leafSize/2, leafSize)
			}
			for _, id := range leaf {
				seen[id]++
			}
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("tree %d holds row %d in %d leaves", ti, id, c)
			}
		}
	}
}

func TestLeavesPartitionDataset(t *testing.T) {
	data := clustered(rand.New(rand.NewSource(1)), 500, 8)
	// Duplicated rows tie their node's median whenever a copy is the
	// median row.
	dups := make([][]float32, 300)
	for i := range dups {
		dups[i] = data[i%20]
	}
	for _, data := range [][][]float32{data, dups} {
		f := NewForest(data, 3, 2)
		if len(f) != 3 {
			t.Fatalf("trees = %d", len(f))
		}
		checkLeaves(t, f, len(data))
		// Every row descends to the leaf that holds it.
		for _, tree := range f {
			for id, v := range data {
				if !reaches(tree, v, id) {
					t.Fatalf("%d rows: row %d is not in a leaf it descends to", len(data), id)
				}
			}
		}
	}
}

func TestCandidatesAreLocal(t *testing.T) {
	// Candidates for a query should be much closer than random points
	// on clustered data.
	rng := rand.New(rand.NewSource(3))
	data := clustered(rng, 2000, 10)
	f := NewForest(data, 4, 4)

	better := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		q := data[rng.Intn(len(data))]
		cands := f.Candidates(q, 30)
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
		var candMean, randMean float64
		for _, id := range cands {
			candMean += float64(metric.SquaredL2Float32(q, data[id]))
		}
		candMean /= float64(len(cands))
		for i := 0; i < len(cands); i++ {
			randMean += float64(metric.SquaredL2Float32(q, data[rng.Intn(len(data))]))
		}
		randMean /= float64(len(cands))
		if candMean < randMean {
			better++
		}
	}
	if better < trials*8/10 {
		t.Errorf("candidates closer than random in only %d/%d trials", better, trials)
	}
}

func TestCandidatesRespectMax(t *testing.T) {
	data := clustered(rand.New(rand.NewSource(5)), 300, 6)
	f := NewForest(data, 5, 6)
	cands := f.Candidates(data[0], 10)
	if len(cands) != 10 {
		t.Errorf("got %d candidates, want 10", len(cands))
	}
	seen := map[knng.ID]bool{}
	for _, id := range cands {
		if seen[id] {
			t.Fatalf("duplicate candidate %d", id)
		}
		seen[id] = true
	}
	// max <= 0 returns the full union, still without repeats.
	all := f.Candidates(data[0], 0)
	if len(all) < leafSize/2 {
		t.Errorf("unbounded candidates = %d", len(all))
	}
	slices.Sort(all)
	if len(slices.Compact(all)) != len(all) {
		t.Errorf("unbounded candidates repeat a row")
	}
}

func TestDegenerateIdenticalPoints(t *testing.T) {
	// All points identical: every key ties, the split falls back to ID
	// order and must still terminate with balanced leaves.
	data := make([][]float32, 100)
	for i := range data {
		data[i] = []float32{1, 2, 3}
	}
	f := NewForest(data, 2, 7)
	checkLeaves(t, f, len(data))
	if cands := f.Candidates([]float32{1, 2, 3}, 0); len(cands) == 0 {
		t.Fatal("no candidates on degenerate data")
	}
	// Every key ties, so the descent reaches every leaf; max still
	// bounds the candidates.
	if cands := f.Candidates([]float32{1, 2, 3}, 7); len(cands) != 7 {
		t.Errorf("got %d candidates, want 7", len(cands))
	}
}

func TestUint8Forest(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([][]uint8, 400)
	for i := range data {
		base := uint8(rng.Intn(5)) * 50
		v := make([]uint8, 8)
		for j := range v {
			v[j] = base + uint8(rng.Intn(20))
		}
		data[i] = v
	}
	f := NewForest(data, 3, 9)
	checkLeaves(t, f, len(data))
	// The query point itself must be in its own leaves.
	if !slices.Contains(f.Candidates(data[7], 0), 7) {
		t.Error("query point missing from its own leaves")
	}
}

// Sets split by MinHash keys, which tie often. The leaves partition the
// rows, the empty set included, and every set finds its own leaf: a set
// whose key ties its node's median descends both ways.
func TestSetForest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := make([][]uint32, 300)
	for i := range sets {
		base := uint32(rng.Intn(4)) * 100
		for e := range uint32(10) {
			if rng.Intn(2) == 0 {
				sets[i] = append(sets[i], base+e*3+uint32(rng.Intn(3)))
			}
		}
	}
	sets[4] = nil
	f := NewForest(sets, 2, 12)
	checkLeaves(t, f, len(sets))
	found := 0
	for id, s := range sets {
		for _, tree := range f {
			if reaches(tree, s, id) {
				found++
			}
		}
	}
	if found != 2*len(sets) {
		t.Errorf("%d of %d descents reach the set's own leaf", found, 2*len(sets))
	}
}

func TestQuickForestPartition(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 10
		dim := rng.Intn(8) + 1
		data := make([][]float32, n)
		for i := range data {
			v := make([]float32, dim)
			for j := range v {
				v[j] = rng.Float32()
			}
			data[i] = v
		}
		for _, tree := range NewForest(data, 2, seed) {
			seen := make([]bool, n)
			for _, leaf := range leaves(tree) {
				if len(leaf) > leafSize {
					return false
				}
				for _, id := range leaf {
					if seen[id] {
						return false
					}
					seen[id] = true
				}
			}
			if slices.Contains(seen, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
