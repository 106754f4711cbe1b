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
func assertIdenticalResults(t *testing.T, hot, cons *Result) {
	t.Helper()
	if hot.Comm != cons.Comm {
		t.Errorf("message totals differ:\nhot  = %+v\ncons = %+v", hot.Comm, cons.Comm)
	}
	if hot.Iters != cons.Iters {
		t.Errorf("iterations differ: hot %d, cons %d", hot.Iters, cons.Iters)
	}
	if !reflect.DeepEqual(hot.Rounds, cons.Rounds) {
		t.Errorf("round counters differ:\nhot  = %+v\ncons = %+v", hot.Rounds, cons.Rounds)
	}
	if hot.DistEvals != cons.DistEvals {
		t.Errorf("distance evals differ: hot %d, cons %d", hot.DistEvals, cons.DistEvals)
	}
	if hot.Graph.NumVertices() != cons.Graph.NumVertices() {
		t.Fatalf("graph sizes differ: hot %d, cons %d",
			hot.Graph.NumVertices(), cons.Graph.NumVertices())
	}
	for v := range hot.Graph.Neighbors {
		if !reflect.DeepEqual(hot.Graph.Neighbors[v], cons.Graph.Neighbors[v]) {
			t.Fatalf("vertex %d neighbor list differs:\nhot  = %+v\ncons = %+v",
				v, hot.Graph.Neighbors[v], cons.Graph.Neighbors[v])
		}
	}
}

// TestOptimizationPassDeterminism is the end-to-end regression test for
// the allocation-free hot path: at a fixed seed, the optimized code
// (reused writers, borrowed wire decodes, epoch-stamped marks, flat
// reverse rows, cached norms) must produce message counts, byte
// volumes, and a gathered graph identical to the original
// allocation-heavy path (cfg.Conservative).
func TestOptimizationPassDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fdata := clusteredData(rng, 300, 12, 8)
	udata := make([][]uint8, 240)
	for i := range udata {
		v := make([]uint8, 24)
		for j := range v {
			v[j] = uint8(rng.Intn(256))
		}
		udata[i] = v
	}

	baseCfg := func() Config {
		cfg := DefaultConfig(6)
		cfg.Seed = 12345
		cfg.Optimize = true
		return cfg
	}

	run := func(name string, build func(cons bool) *Result) {
		t.Run(name, func(t *testing.T) {
			hot := build(false)
			consv := build(true)
			assertIdenticalResults(t, hot, consv)
		})
	}

	// Every subtest runs on a single rank: with several rank goroutines
	// the protocol outcome depends on message-arrival order in either
	// mode (this predates the hot path) — the one-sided SkipRedundant and
	// PruneDistant decisions read the receiver's list state at arrival
	// time, and even the two-sided per-round update counters that feed
	// Delta termination count successful inserts, which insertion order
	// reorders. A single rank drains its self-sends FIFO on one
	// goroutine, making delivery deterministic while still driving every
	// hot-path branch (reused writers, borrowed decodes, epoch marks,
	// flat rows) through the full wire encode/aggregate/dispatch cycle.

	// Squared L2 exercises the reused-writer/scratch-decode path.
	run("float32-sql2", func(cons bool) *Result {
		cfg := baseCfg()
		cfg.Conservative = cons
		return buildKernelOnWorld(t, 1, fdata, metric.SquaredL2, cfg)
	})
	// Cosine additionally exercises the norm-precomputed fused kernel
	// (hot) against the plain kernel (conservative).
	run("float32-cosine", func(cons bool) *Result {
		cfg := baseCfg()
		cfg.Conservative = cons
		return buildKernelOnWorld(t, 1, fdata, metric.Cosine, cfg)
	})
	// uint8 exercises the zero-copy borrowed-view decode.
	run("uint8-hamming", func(cons bool) *Result {
		cfg := baseCfg()
		cfg.Conservative = cons
		return buildKernelOnWorld(t, 1, udata, metric.Hamming, cfg)
	})
	// The unoptimized two-sided protocol hits the remaining branches.
	run("two-sided-sql2", func(cons bool) *Result {
		cfg := baseCfg()
		cfg.Conservative = cons
		cfg.Protocol = Unoptimized()
		return buildKernelOnWorld(t, 1, fdata, metric.SquaredL2, cfg)
	})
}

// TestUnionSampleLeavesExtraIntact is the regression test for the
// in-place shuffle bug: unionSample used to reorder the caller's extra
// slice (a reverse-matrix row), mutating state that other merges could
// still read. Both modes must shuffle a scratch copy instead.
func TestUnionSampleLeavesExtraIntact(t *testing.T) {
	for _, cons := range []bool{false, true} {
		b := &builder[float32]{
			cfg:   Config{Conservative: cons},
			rng:   rand.New(rand.NewSource(3)),
			shard: &Shard[float32]{N: 64},
		}
		extra := []knng.ID{5, 11, 1, 7, 3, 8, 2} // disjoint from base: exact output size below
		orig := append([]knng.ID(nil), extra...)
		base := []knng.ID{9, 40, 40}
		out := b.unionSample(append([]knng.ID(nil), base...), extra, 3)
		if !reflect.DeepEqual(extra, orig) {
			t.Errorf("conservative=%v: extra mutated: %v (was %v)", cons, extra, orig)
		}
		seen := map[knng.ID]bool{}
		for _, id := range out {
			if seen[id] {
				t.Errorf("conservative=%v: duplicate %d in %v", cons, id, out)
			}
			seen[id] = true
		}
		if out[0] != 9 || out[1] != 40 {
			t.Errorf("conservative=%v: base order not preserved: %v", cons, out)
		}
		if len(out) != 2+3 {
			t.Errorf("conservative=%v: want 2 base + 3 sampled, got %v", cons, out)
		}
	}
}

// Both modes must also consume the random stream identically — that is
// what keeps a mixed-mode world (one rank conservative, others not)
// coherent, and what the determinism test above relies on.
func TestUnionSampleRNGConsumptionIdentical(t *testing.T) {
	sample := func(cons bool) int64 {
		b := &builder[float32]{
			cfg:   Config{Conservative: cons},
			rng:   rand.New(rand.NewSource(17)),
			shard: &Shard[float32]{N: 128},
		}
		extra := make([]knng.ID, 20)
		for i := range extra {
			extra[i] = knng.ID(i * 3 % 64)
		}
		b.unionSample([]knng.ID{1, 2, 3}, extra, 5)
		return b.rng.Int63()
	}
	if a, z := sample(false), sample(true); a != z {
		t.Errorf("RNG streams diverge after unionSample: %d vs %d", a, z)
	}
}
