package core

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
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
// reverse-edge rows, enough state to drive mergeVertex directly.
func mergeTestBuilder() *builder[float32] {
	const n, k = 400, 8
	rng := rand.New(rand.NewSource(9))
	b := &builder[float32]{cfg: DefaultConfig(k)}
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
	return b
}

// TestMergeFinalMatchesGraphOptimize pins the distributed Section 4.5
// (reverse edges shipped as messages, merged by mergeFinal) against the
// serial knng.Graph.Optimize that dnnd-optimize runs, an independent
// implementation: on one rank, with the same data and seed, a build
// with Optimize must equal a build without it followed by
// Graph.Optimize(K, 1.5) — neighbor IDs and distances alike.
func TestMergeFinalMatchesGraphOptimize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fdata := clusteredData(rng, 300, 12, 8)
	for _, kind := range []metric.Kind{metric.SquaredL2, metric.Cosine} {
		cfg := DefaultConfig(6)
		cfg.Seed = 777
		merged := buildKernelOnWorld(t, 1, fdata, kind, cfg)
		cfg.Optimize = false
		serial := buildKernelOnWorld(t, 1, fdata, kind, cfg)
		serial.Graph.Optimize(cfg.K, 1.5)
		for v := range serial.Graph.Neighbors {
			if !reflect.DeepEqual(merged.Graph.Neighbors[v], serial.Graph.Neighbors[v]) {
				t.Fatalf("%v: vertex %d differs:\ndistributed = %+v\nserial      = %+v",
					kind, v, merged.Graph.Neighbors[v], serial.Graph.Neighbors[v])
			}
		}
	}
}

// TestWorkerPanicSurfacesOnRankGoroutine: a kernel panic on a helper
// goroutine must not kill it silently — the pool captures it and
// rethrows it on the rank goroutine, where the ygm world turns it into
// a RankError.
func TestWorkerPanicSurfacesOnRankGoroutine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := clusteredData(rng, 240, 10, 6)
	kern := metric.KernelOf(metric.SquaredL2Float32)
	kern.Many = func(q []float32, cands [][]float32, _ []float32, out []float32) {
		// Only a helper's stack runs through the pool's worker loop.
		buf := make([]byte, 4096)
		if strings.Contains(string(buf[:runtime.Stack(buf, false)]), ").worker(") {
			panic("boom on a helper")
		}
		// Inline on the applier: yield, so the helpers claim the tasks
		// queued behind this one even on a single core.
		runtime.Gosched()
		for i, c := range cands {
			out[i] = metric.SquaredL2Float32(q, c)
		}
	}
	cfg := DefaultConfig(5)
	cfg.Workers = 3
	err := ygm.NewLocalWorld(1).Run(func(c *ygm.Comm) error {
		_, err := BuildKernel(c, Partition(data, 0, 1), kern, cfg)
		return err
	})
	var re *ygm.RankError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want a RankError from the helper panic", err)
	}
	if !strings.Contains(err.Error(), "boom on a helper") {
		t.Fatalf("RankError lacks the panic text: %v", err)
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

// mergeVertex dedupes through the builder's shared visited set; make
// sure repeated epochs on it do not leak marks between vertices.
func TestMergeScratchEpochIsolation(t *testing.T) {
	b := mergeTestBuilder()
	first := b.mergeVertex(7, 12)
	for i := 0; i < 100; i++ {
		b.mergeVertex(i%b.shard.Len(), 12)
	}
	again := b.mergeVertex(7, 12)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("mergeVertex(7) unstable across visited-set epochs:\nfirst = %+v\nagain = %+v", first, again)
	}
}
