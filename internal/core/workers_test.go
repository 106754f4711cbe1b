package core

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/ygm"
)

// TestWorkerCountEquivalence is the contract of the intra-rank worker
// pool: because handlers only stage, workers only compute, and all
// effects apply in submission order at schedule-independent points, a
// build with helper goroutines must be bit-identical to the serial
// build — same message counts and bytes, same rounds, same distance
// evals, same staged-task count, same gathered graph. Single rank
// because multi-rank arrival order is nondeterministic regardless of
// the pool.
func TestWorkerCountEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fdata := clusteredData(rng, 300, 12, 8)

	cases := []struct {
		name string
		kind metric.Kind
		mut  func(*Config)
	}{
		{"hot-cosine", metric.Cosine, func(cfg *Config) {}},
		{"hot-sql2", metric.SquaredL2, func(cfg *Config) {}},
		{"two-sided-sql2", metric.SquaredL2, func(cfg *Config) { cfg.Protocol = Unoptimized() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) *Result {
				cfg := DefaultConfig(6)
				cfg.Seed = 777
				cfg.Workers = workers
				tc.mut(&cfg)
				return buildKernelOnWorld(t, 1, fdata, tc.kind, cfg)
			}
			serial := build(1)
			for _, workers := range []int{2, 4} {
				got := build(workers)
				assertIdenticalResults(t, serial, got)
				if serial.TasksDeferred != got.TasksDeferred {
					t.Errorf("workers=%d staged %d tasks, serial staged %d",
						workers, got.TasksDeferred, serial.TasksDeferred)
				}
				if got.Workers != workers {
					t.Errorf("resolved Workers = %d, want %d", got.Workers, workers)
				}
			}
		})
	}
}

// TestWorkerPoolRingHammer shrinks the ring and batch caps to force
// constant seal/claim/steal/recycle churn and runs a multi-rank build
// with helper goroutines. It asserts only completion and sanity (the
// graph exists and distances were computed) — multi-rank outcomes are
// arrival-order-dependent — and exists chiefly for the -race pass in
// scripts/ci.sh.
func TestWorkerPoolRingHammer(t *testing.T) {
	defer func(ring, batch int) {
		taskRingSize, taskBatchSize = ring, batch
	}(taskRingSize, taskBatchSize)
	taskRingSize = 4
	taskBatchSize = 2

	rng := rand.New(rand.NewSource(5))
	fdata := clusteredData(rng, 240, 10, 6)
	cfg := DefaultConfig(5)
	cfg.Seed = 31
	cfg.Workers = 3
	res := buildKernelOnWorld(t, 4, fdata, metric.SquaredL2, cfg)
	if res.Graph.NumVertices() != len(fdata) {
		t.Fatalf("gathered %d vertices, want %d", res.Graph.NumVertices(), len(fdata))
	}
	if res.DistEvals == 0 || res.TasksDeferred == 0 {
		t.Fatalf("no staged work recorded: evals=%d tasks=%d", res.DistEvals, res.TasksDeferred)
	}
	for v, ns := range res.Graph.Neighbors {
		if len(ns) == 0 {
			t.Fatalf("vertex %d has no neighbors", v)
		}
	}
}

// mergeTestBuilder builds a standalone builder with synthetic lists and
// reverse-edge rows, enough state to drive mergeFinal directly.
func mergeTestBuilder(workers int) *builder[float32] {
	const n, k = 400, 8
	rng := rand.New(rand.NewSource(9))
	b := &builder[float32]{cfg: DefaultConfig(k)}
	b.cfg.Workers = workers
	ids := make([]knng.ID, n)
	for i := range ids {
		ids[i] = knng.ID(i)
	}
	b.shard = &Shard[float32]{N: n, IDs: ids}
	b.lists = knng.MakeNeighborLists(n, k)
	b.optRows = make([][]knng.Neighbor, n)
	for i := range b.lists {
		for j := 0; j < 2*k; j++ {
			b.lists[i].Update(knng.ID(rng.Intn(n)), rng.Float32(), j%2 == 0)
		}
		for j := 0; j < rng.Intn(3*k); j++ {
			b.optRows[i] = append(b.optRows[i], knng.Neighbor{
				ID:   knng.ID(rng.Intn(n)),
				Dist: rng.Float32(),
			})
		}
	}
	b.pool = newWorkpool(b, workers)
	return b
}

// TestMergeFinalParallelSerialEquivalence pins the graph-optimization
// satellite: the pooled per-vertex merge must produce exactly the lists
// the serial loop produces.
func TestMergeFinalParallelSerialEquivalence(t *testing.T) {
	serial := mergeTestBuilder(1)
	defer serial.pool.Shutdown()
	serial.mergeFinal(12)

	par := mergeTestBuilder(4)
	defer par.pool.Shutdown()
	par.mergeFinal(12)

	if len(serial.final) != len(par.final) {
		t.Fatalf("final sizes differ: %d vs %d", len(serial.final), len(par.final))
	}
	for i := range serial.final {
		if !reflect.DeepEqual(serial.final[i], par.final[i]) {
			t.Fatalf("vertex %d merged list differs:\nserial   = %+v\nparallel = %+v",
				i, serial.final[i], par.final[i])
		}
	}
}

// TestParallelForCoversAllItems checks the chunk-claiming loop: every
// index runs exactly once, for sizes around the chunk boundaries.
func TestParallelForCoversAllItems(t *testing.T) {
	b := mergeTestBuilder(4)
	defer b.pool.Shutdown()
	for _, n := range []int{0, 1, 15, 16, 17, 1000} {
		counts := make([]atomic.Int32, n)
		b.pool.ParallelFor(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

// TestWorkerPanicSurfacesOnRankGoroutine: a panic inside pooled work
// must not kill a helper goroutine silently — it is captured and
// rethrown where the ygm world's recovery can turn it into a RankError.
func TestWorkerPanicSurfacesOnRankGoroutine(t *testing.T) {
	err := ygm.NewLocalWorld(1).Run(func(c *ygm.Comm) error {
		b := mergeTestBuilder(4)
		defer b.pool.Shutdown()
		b.pool.ParallelFor(64, func(i int) {
			if i == 33 {
				panic("boom at 33")
			}
		})
		return nil
	})
	if err == nil {
		t.Fatal("expected the pooled panic to fail the rank")
	}
	if !strings.Contains(err.Error(), "boom at 33") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestResolveWorkers pins the Config.Workers defaulting rule.
func TestResolveWorkers(t *testing.T) {
	for _, tc := range []struct{ configured, nranks, want int }{
		{3, 1, 3},       // explicit wins
		{3, 8, 3},       // explicit wins regardless of rank count
		{0, 1 << 20, 1}, // auto never resolves below 1
	} {
		if got := resolveWorkers(tc.configured, tc.nranks); got != tc.want {
			t.Errorf("resolveWorkers(%d, %d) = %d, want %d", tc.configured, tc.nranks, got, tc.want)
		}
	}
	if got := resolveWorkers(0, 1); got < 1 {
		t.Errorf("auto resolution = %d, want >= 1", got)
	}
}

// mergeVertex hands scratch marks back to the pool; make sure repeated
// epochs on recycled scratch do not leak state between vertices.
func TestMergeScratchEpochIsolation(t *testing.T) {
	b := mergeTestBuilder(1)
	defer b.pool.Shutdown()
	var scratch sync.Pool
	scratch.New = func() any { return new(knng.VisitSet) }
	first := b.mergeVertex(7, 12, &scratch)
	for i := 0; i < 100; i++ {
		b.mergeVertex(i%b.shard.Len(), 12, &scratch)
	}
	again := b.mergeVertex(7, 12, &scratch)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("mergeVertex(7) unstable across scratch reuse:\nfirst = %+v\nagain = %+v", first, again)
	}
}
