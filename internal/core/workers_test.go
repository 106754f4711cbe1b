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
// pool: because handlers never evaluate a distance (records that
// compute nothing are applied where they arrive, and distance work is
// staged), workers only compute, and staged effects apply in submission
// order at schedule-independent points, a build with helper goroutines
// must be bit-identical to the serial
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
				cfg.workers = workers
				tc.mut(&cfg)
				return buildKernelOnWorld(t, 1, fdata, tc.kind, cfg)
			}
			serial := build(1)
			for _, workers := range []int{2, 3, 4} {
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
	cfg.workers = 3
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

// TestStagedWorkStaysWithinRingBound holds the ring to its cap at N
// ranks, where most staged work comes from other ranks' traffic. The
// bound follows from where tasks are staged. Only handlers and the
// emit loops stage, each staging adds at most one task, and a
// half-drain runs the moment the ring holds ringCap, so it never holds
// more. Nothing is staged inside an apply: no apply stages work of its
// own, and nothing is drained from the mailbox while one runs (sends
// made by applies make no opportunistic progress; see
// ygm.Comm.SetLocalWork). Were applies to drain the mailbox, one drain
// would stage a phase's whole inbound backlog, and this build would
// peak at thousands.
func TestStagedWorkStaysWithinRingBound(t *testing.T) {
	defer func(ring, batch int) {
		taskRingSize, taskBatchSize = ring, batch
	}(taskRingSize, taskBatchSize)
	taskRingSize = 4
	taskBatchSize = 2
	bound := int64(taskRingSize)

	data := clusteredData(rand.New(rand.NewSource(67)), 600, 8, 8)
	cfg := DefaultConfig(8)
	cfg.workers = 2
	for _, w := range []struct {
		name   string
		run    worldRunner
		nranks int
	}{
		{"local-4", localRunner(4), 4},
		{"tcp-3", tcpRunner(3), 3},
	} {
		res := runPath(t, w.run, w.nranks, data, cfg).res
		if res.PeakStaged > bound {
			t.Errorf("%s: a rank held %d staged tasks, bound is the ring cap %d",
				w.name, res.PeakStaged, bound)
		}
		if res.PeakStaged < int64(taskRingSize) {
			t.Errorf("%s: peak of %d staged tasks never reached the cap %d; the test exercises no drain",
				w.name, res.PeakStaged, taskRingSize)
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
	cfg.workers = 3
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

// TestResolveWorkers pins the worker-width rule: a test's width wins,
// and every other build runs GOMAXPROCS / nranks, at least 1.
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
	if got, want := resolveWorkers(0, 1), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("auto resolution = %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestEnvWorkersReachResult: DNND_TEST_WORKERS is how the CI race pass
// forces the whole suite onto a 3-wide pool now that no caller outside
// the package sets a width, so the variable must still reach the
// builder. Without it, a build runs the GOMAXPROCS share.
func TestEnvWorkersReachResult(t *testing.T) {
	data := clusteredData(rand.New(rand.NewSource(5)), 300, 8, 4)
	cfg := DefaultConfig(6)
	t.Setenv("DNND_TEST_WORKERS", "")
	if res, want := buildKernelOnWorld(t, 2, data, metric.SquaredL2, cfg), max(runtime.GOMAXPROCS(0)/2, 1); res.Workers != want {
		t.Errorf("unset: Result.Workers = %d, want GOMAXPROCS/2 = %d", res.Workers, want)
	}
	t.Setenv("DNND_TEST_WORKERS", "3")
	if res := buildKernelOnWorld(t, 2, data, metric.SquaredL2, cfg); res.Workers != 3 {
		t.Errorf("DNND_TEST_WORKERS=3: Result.Workers = %d, want 3", res.Workers)
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
