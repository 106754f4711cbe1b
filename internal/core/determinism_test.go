package core

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/wire"
	"dnnd/internal/ygm"
)

// buildKernelOnWorld runs a construction over a local world with the
// named metric and returns rank 0's result. Tests that leave
// cfg.Workers at 0 can be re-run at a forced pool width via the
// DNND_TEST_WORKERS environment variable (the CI race pass uses this to
// drive the whole suite with helper goroutines active); results are
// worker-count-independent by construction, so every assertion must
// hold unchanged.
func buildKernelOnWorld[T wire.Scalar](t *testing.T, nranks int, data [][]T, kind metric.Kind, cfg Config) *Result {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = envWorkers(t)
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

// TestUnionSampleLeavesExtraIntact is the regression test for the
// in-place shuffle bug: unionSample used to reorder the caller's extra
// slice (a reverse-matrix row), mutating state that other merges could
// still read. It must shuffle a scratch copy instead.
func TestUnionSampleLeavesExtraIntact(t *testing.T) {
	b := &builder[float32]{
		rng:   rand.New(rand.NewSource(3)),
		shard: &Shard[float32]{N: 64},
	}
	extra := []knng.ID{5, 11, 1, 7, 3, 8, 2} // disjoint from base: exact output size below
	orig := append([]knng.ID(nil), extra...)
	base := []knng.ID{9, 40, 40}
	out := b.unionSample(append([]knng.ID(nil), base...), extra, 3)
	if !reflect.DeepEqual(extra, orig) {
		t.Errorf("extra mutated: %v (was %v)", extra, orig)
	}
	seen := map[knng.ID]bool{}
	for _, id := range out {
		if seen[id] {
			t.Errorf("duplicate %d in %v", id, out)
		}
		seen[id] = true
	}
	if out[0] != 9 || out[1] != 40 {
		t.Errorf("base order not preserved: %v", out)
	}
	if len(out) != 2+3 {
		t.Errorf("want 2 base + 3 sampled, got %v", out)
	}
}
