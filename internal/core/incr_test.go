package core

import (
	"math/rand"
	"sync"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/ygm"
)

// buildIncrOnWorld runs buildIncremental over a local world and returns
// rank 0's result.
func buildIncrOnWorld(t *testing.T, nranks int, data [][]float32, cfg Config, prior *knng.Graph, dead *knng.TombSet) *Result {
	t.Helper()
	w := ygm.NewLocalWorld(nranks)
	var mu sync.Mutex
	var root *Result
	err := w.Run(func(c *ygm.Comm) error {
		shard := Partition(data, c.Rank(), c.NRanks())
		res, err := buildIncremental(c, shard, metric.Kernel[float32]{Fn: metric.SquaredL2Float32}, cfg, prior, dead)
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
	if err != nil {
		t.Fatal(err)
	}
	if root == nil || root.Graph == nil {
		t.Fatal("no gathered graph on rank 0")
	}
	return root
}

// incrFixture builds a base graph over the first n points, then hands
// back the grown dataset (n + delta points) and a tombstone set killing
// some base points — the standard ingest+delete refinement scenario.
func incrFixture(t *testing.T, n, delta, nKill int) (data [][]float32, prior *knng.Graph, dead *knng.TombSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	data = clusteredData(rng, n+delta, 8, 12)
	cfg := DefaultConfig(10)
	cfg.Optimize = false
	prior = buildOnWorld(t, 1, data[:n], cfg).Graph
	dead = knng.NewTombSet(n + delta)
	kr := rand.New(rand.NewSource(77))
	for dead.Count() < nKill {
		dead.Kill(knng.ID(kr.Intn(n)))
	}
	return data, prior, dead
}

func TestIncrementalRepairRecall(t *testing.T) {
	data, prior, dead := incrFixture(t, 500, 50, 25)
	cfg := DefaultConfig(10)
	cfg.Optimize = false
	res := buildIncrOnWorld(t, 1, data, cfg, prior, dead)

	// Live lists must never contain a dead ID; dead vertices keep their
	// prior lists verbatim (routable, possibly stale).
	for v := 0; v < res.Graph.NumVertices(); v++ {
		id := knng.ID(v)
		if dead.Dead(id) {
			continue
		}
		for _, e := range res.Graph.Neighbors[v] {
			if dead.Dead(e.ID) {
				t.Fatalf("live vertex %d has dead neighbor %d", v, e.ID)
			}
		}
		if res.Graph.Degree(id) != 10 {
			t.Fatalf("live vertex %d degree %d, want 10", v, res.Graph.Degree(id))
		}
	}
	for v := 0; v < prior.NumVertices(); v++ {
		if !dead.Dead(knng.ID(v)) {
			continue
		}
		got, want := res.Graph.Neighbors[v], prior.Neighbors[v]
		if len(got) != len(want) {
			t.Fatalf("dead vertex %d list rewritten: %d entries, prior %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dead vertex %d entry %d changed", v, i)
			}
		}
	}

	// Recall over the live population must reach the full-build bar.
	truth := brute.KNNGraph(data, 10, metric.SquaredL2Float32, 0)
	var total float64
	live := 0
	for v := 0; v < res.Graph.NumVertices(); v++ {
		if dead.Dead(knng.ID(v)) {
			continue
		}
		// Ground truth restricted to live points.
		want := make(map[knng.ID]bool, 10)
		for _, e := range truth.Neighbors[v] {
			if !dead.Dead(e.ID) && len(want) < 10 {
				want[e.ID] = true
			}
		}
		hits := 0
		for _, e := range res.Graph.Neighbors[v] {
			if want[e.ID] {
				hits++
			}
		}
		total += float64(hits) / float64(len(want))
		live++
	}
	r := total / float64(live)
	t.Logf("live recall=%.3f iters=%d distEvals=%d", r, res.Iters, res.DistEvals)
	if r < 0.90 {
		t.Errorf("live recall = %.3f, want >= 0.90", r)
	}
}

// TestIncrementalDeterminismAcrossWorkers pins the acceptance
// criterion: delta refinement is bit-identical at every worker width.
func TestIncrementalDeterminismAcrossWorkers(t *testing.T) {
	data, prior, dead := incrFixture(t, 400, 40, 20)
	var ref *Result
	for _, workers := range []int{1, 2, 3, 5} {
		cfg := DefaultConfig(10)
		cfg.Optimize = true
		cfg.workers = workers
		res := buildIncrOnWorld(t, 1, data, cfg, prior, dead)
		if ref == nil {
			ref = res
			continue
		}
		if !res.Graph.Equal(ref.Graph) {
			t.Fatalf("workers=%d: graph differs from workers=1", workers)
		}
		if res.DistEvals != ref.DistEvals {
			t.Fatalf("workers=%d: distEvals %d != %d", workers, res.DistEvals, ref.DistEvals)
		}
	}
}

// TestIncrementalDeterminismAcrossRanks pins cross-rank stability at a
// fixed worker width (the multi-rank wire protocol with dead-vertex
// gating active on every rank).
func TestIncrementalDeterminismAcrossRanks(t *testing.T) {
	data, prior, dead := incrFixture(t, 400, 40, 20)
	for _, nranks := range []int{1, 2, 3} {
		cfg := DefaultConfig(10)
		cfg.Optimize = false
		res := buildIncrOnWorld(t, nranks, data, cfg, prior, dead)
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("nranks=%d: %v", nranks, err)
		}
		for v := 0; v < res.Graph.NumVertices(); v++ {
			if dead.Dead(knng.ID(v)) {
				continue
			}
			for _, e := range res.Graph.Neighbors[v] {
				if dead.Dead(e.ID) {
					t.Fatalf("nranks=%d: live vertex %d has dead neighbor %d", nranks, v, e.ID)
				}
			}
		}
	}
}

// TestIncrementalCheaperThanCold pins the refinement-cost acceptance
// criterion at test scale: refining a +10% delta costs well under 0.3x
// the distance evaluations of a cold rebuild.
func TestIncrementalCheaperThanCold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n, delta := 900, 90
	data := clusteredData(rng, n+delta, 8, 12)
	cfg := DefaultConfig(10)
	cfg.Optimize = false
	prior := buildOnWorld(t, 1, data[:n], cfg).Graph

	cold := buildOnWorld(t, 1, data, cfg)
	warm := buildIncrOnWorld(t, 1, data, cfg, prior, knng.NewTombSet(n+delta))
	t.Logf("cold evals=%d warm evals=%d ratio=%.3f", cold.DistEvals, warm.DistEvals,
		float64(warm.DistEvals)/float64(cold.DistEvals))
	if warm.DistEvals*10 > cold.DistEvals*3 {
		t.Errorf("warm refinement evals %d exceed 0.3x cold %d", warm.DistEvals, cold.DistEvals)
	}
}

func TestIncrementalRejectsOverdeadSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := clusteredData(rng, 30, 4, 3)
	dead := knng.NewTombSet(30)
	for i := 0; i < 25; i++ {
		dead.Kill(knng.ID(i))
	}
	cfg := DefaultConfig(10)
	err := ygm.NewLocalWorld(1).Run(func(c *ygm.Comm) error {
		shard := Partition(data, c.Rank(), c.NRanks())
		_, err := buildIncremental(c, shard, metric.Kernel[float32]{Fn: metric.SquaredL2Float32}, cfg, nil, dead)
		return err
	})
	if err == nil {
		t.Fatal("build accepted a tombstone set leaving fewer live points than K")
	}
}
