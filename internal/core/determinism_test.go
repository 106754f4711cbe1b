package core

import (
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

	"dnnd/internal/dataset"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/wire"
	"dnnd/internal/ygm"
)

// buildKernelOnWorld runs a construction over a local world with the
// named metric and returns rank 0's result. Tests that leave
// cfg.workers at 0 can be re-run at a forced pool width via the
// DNND_TEST_WORKERS environment variable (the CI race pass uses this to
// drive the whole suite with helper goroutines active); results are
// worker-count-independent by construction, so every assertion must
// hold unchanged.
func buildKernelOnWorld[T wire.Scalar](t *testing.T, nranks int, data [][]T, kind metric.Kind, cfg Config) *Result {
	t.Helper()
	if cfg.workers == 0 {
		cfg.workers = envWorkers(t)
	}
	kern, err := metric.KernelFor[T](kind)
	if err != nil {
		t.Fatal(err)
	}
	w := ygm.NewLocalWorld(nranks)
	var mu sync.Mutex
	var root *Result
	runErr := w.Run(func(c *ygm.Comm) error {
		shard := Partition(data, c.Rank(), c.NRanks())
		res, err := BuildKernel(c, shard, kern, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			root = res
			mu.Unlock()
		}
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if root == nil || root.Graph == nil {
		t.Fatal("no gathered graph on rank 0")
	}
	return root
}

// envWorkers is the DNND_TEST_WORKERS pool width, or 0 (the default
// width) when unset.
func envWorkers(t *testing.T) int {
	t.Helper()
	s := os.Getenv("DNND_TEST_WORKERS")
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("bad DNND_TEST_WORKERS=%q: %v", s, err)
	}
	return n
}

// assertIdenticalResults demands bit-level equality of everything the
// Figure-4 accounting and the descent outcome depend on: message and
// byte totals per type, per-round convergence counters, distance-eval
// counts, and the gathered graph (IDs, float32 distances, and New
// flags).
func assertIdenticalResults(t *testing.T, want, got *Result) {
	t.Helper()
	if want.Comm != got.Comm {
		t.Errorf("message totals differ:\nwant = %+v\ngot  = %+v", want.Comm, got.Comm)
	}
	if want.Iters != got.Iters {
		t.Errorf("iterations differ: want %d, got %d", want.Iters, got.Iters)
	}
	if !reflect.DeepEqual(want.Rounds, got.Rounds) {
		t.Errorf("round counters differ:\nwant = %+v\ngot  = %+v", want.Rounds, got.Rounds)
	}
	if want.DistEvals != got.DistEvals {
		t.Errorf("distance evals differ: want %d, got %d", want.DistEvals, got.DistEvals)
	}
	if want.Graph.NumVertices() != got.Graph.NumVertices() {
		t.Fatalf("graph sizes differ: want %d, got %d",
			want.Graph.NumVertices(), got.Graph.NumVertices())
	}
	for v := range want.Graph.Neighbors {
		if !reflect.DeepEqual(want.Graph.Neighbors[v], got.Graph.Neighbors[v]) {
			t.Fatalf("vertex %d neighbor list differs:\nwant = %+v\ngot  = %+v",
				v, want.Graph.Neighbors[v], got.Graph.Neighbors[v])
		}
	}
}

// drawState is what a build's random choices decide before the first
// neighbor check, per vertex: the lists after initialization (as sets,
// in Sorted order) and round 1's olds and news (in order).
type drawState struct {
	init       [][]knng.Neighbor
	olds, news [][]knng.ID
}

// drawsAt runs initialization and round 1's sampling over a local world
// of nranks ranks at the given pool width, and collects every rank's
// drawState by global ID.
func drawsAt[T wire.Scalar](t *testing.T, data [][]T, kind metric.Kind, nranks, workers int) drawState {
	t.Helper()
	kern, err := metric.KernelFor[T](kind)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(8)
	cfg.Seed = 5
	cfg.workers = workers
	if err := cfg.Validate(len(data)); err != nil {
		t.Fatal(err)
	}
	n := len(data)
	st := drawState{init: make([][]knng.Neighbor, n), olds: make([][]knng.ID, n), news: make([][]knng.ID, n)}
	var mu sync.Mutex
	runErr := ygm.NewLocalWorld(nranks).Run(func(c *ygm.Comm) error {
		b, stop, err := newBuilder(c, Partition(data, c.Rank(), c.NRanks()), kern, cfg, nil, nil)
		if err != nil {
			return err
		}
		defer stop()
		b.initGraph()
		mu.Lock()
		for i, v := range b.shard.IDs {
			st.init[v] = b.lists[i].Sorted()
		}
		mu.Unlock()
		b.sample(1)
		mu.Lock()
		for i, v := range b.shard.IDs {
			st.olds[v] = append([]knng.ID{}, b.olds[i]...)
			st.news[v] = append([]knng.ID{}, b.news[i]...)
		}
		mu.Unlock()
		c.Barrier()
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return st
}

// TestDrawsIndependentOfRankCount pins the keyed draws: each depends
// only on (seed, round, vertex, purpose), so the initial graph is the
// same set of (ID, distance, flag) at every rank count and pool width,
// and round 1 samples the same olds and news, in the same order, at 1
// and 4 ranks, however the reverse entries arrived.
func TestDrawsIndependentOfRankCount(t *testing.T) {
	t.Run("float32-sql2", func(t *testing.T) {
		checkDrawsIndependent(t, clusteredData(rand.New(rand.NewSource(81)), 500, 8, 6), metric.SquaredL2)
	})
	t.Run("uint32-jaccard", func(t *testing.T) {
		checkDrawsIndependent(t, dataset.PowerLawItemsets(rand.New(rand.NewSource(82)), 400, 10, 600, 12), metric.Jaccard)
	})
}

func checkDrawsIndependent[T wire.Scalar](t *testing.T, data [][]T, kind metric.Kind) {
	want := drawsAt(t, data, kind, 1, 1)
	for _, nranks := range []int{1, 2, 3, 4} {
		for _, workers := range []int{1, 3} {
			got := drawsAt(t, data, kind, nranks, workers)
			if !reflect.DeepEqual(got.init, want.init) {
				t.Errorf("%d ranks, %d workers: initial lists differ from 1 rank's", nranks, workers)
			}
			if nranks != 1 && nranks != 4 {
				continue
			}
			for v := range data {
				if !slices.Equal(got.olds[v], want.olds[v]) || !slices.Equal(got.news[v], want.news[v]) {
					t.Fatalf("%d ranks, %d workers: vertex %d samples olds %v news %v, 1 rank %v %v",
						nranks, workers, v, got.olds[v], got.news[v], want.olds[v], want.news[v])
				}
			}
		}
	}
}

// TestUnionSampleIsASetFunction checks the reverse-row merge: base
// keeps its order and loses its duplicates, exactly sampleN row
// entries join it, and which ones, in which order, does not depend on
// the order the row arrived in.
func TestUnionSampleIsASetFunction(t *testing.T) {
	b := &builder[float32]{shard: &Shard[float32]{N: 64}}
	row := []knng.ID{5, 11, 1, 7, 3, 8, 2} // disjoint from base: exact output size below
	base := []knng.ID{9, 40, 40}
	want := b.unionSample(slices.Clone(base), slices.Clone(row), 77, 3)
	seen := map[knng.ID]bool{}
	for _, id := range want {
		if seen[id] {
			t.Errorf("duplicate %d in %v", id, want)
		}
		seen[id] = true
	}
	if want[0] != 9 || want[1] != 40 {
		t.Errorf("base order not preserved: %v", want)
	}
	if len(want) != 2+3 {
		t.Errorf("want 2 base + 3 sampled, got %v", want)
	}
	for seed := int64(0); seed < 20; seed++ {
		perm := slices.Clone(row)
		rand.New(rand.NewSource(seed)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := b.unionSample(slices.Clone(base), perm, 77, 3); !slices.Equal(got, want) {
			t.Fatalf("row %v merges to %v, row %v to %v", perm, got, row, want)
		}
	}
	if got := b.unionSample(nil, slices.Clone(row), 78, 3); slices.Equal(got, want[2:]) {
		t.Errorf("keys 77 and 78 sample the same %v", got)
	}
}
