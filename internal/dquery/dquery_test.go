package dquery

import (
	"math/rand"
	"sync"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/core"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/recall"
	"dnnd/internal/search"
	"dnnd/internal/ygm"
)

func clusteredData(seed int64, n, dim int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, 8)
	for c := range centers {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32() * 3
		}
		centers[c] = v
	}
	data := make([][]float32, n)
	for i := range data {
		c := centers[rng.Intn(len(centers))]
		v := make([]float32, dim)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64())*0.8
		}
		data[i] = v
	}
	return data
}

// runDistributedQueries builds a graph and answers queries without
// ever gathering the graph: construction result shards feed the query
// engine directly.
func runDistributedQueries(t *testing.T, nranks int, data, queries [][]float32, k int, opt Options) ([][]knng.Neighbor, Stats) {
	t.Helper()
	w := ygm.NewLocalWorld(nranks)
	var mu sync.Mutex
	var results [][]knng.Neighbor
	var stats Stats
	err := w.Run(func(c *ygm.Comm) error {
		shard := core.Partition(data, c.Rank(), c.NRanks())
		cfg := core.DefaultConfig(k)
		res, err := core.Build(c, shard, metric.SquaredL2Float32, cfg)
		if err != nil {
			return err
		}
		eng := New(c, shard, res.Local, metric.SquaredL2Float32)
		got, st, err := eng.Run(queries, opt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			results = got
			stats = st
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if results == nil {
		t.Fatal("rank 0 gathered no results")
	}
	return results, stats
}

func TestDistributedQueryRecall(t *testing.T) {
	data := clusteredData(1, 1200, 8)
	queries := clusteredData(1, 60, 8)[:60] // same distribution
	const k = 10
	truth := brute.TruthIDs(brute.QueryKNN(data, queries, k, metric.SquaredL2Float32, 0))

	results, stats := runDistributedQueries(t, 4, data, queries, k, Options{L: k, Epsilon: 0.2})
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	got := make([][]knng.ID, len(results))
	for i, ns := range results {
		if len(ns) != k {
			t.Fatalf("query %d returned %d neighbors", i, len(ns))
		}
		for j := 1; j < len(ns); j++ {
			if ns[j-1].Dist > ns[j].Dist {
				t.Fatalf("query %d results unsorted", i)
			}
		}
		ids := make([]knng.ID, len(ns))
		for j, e := range ns {
			ids[j] = e.ID
		}
		got[i] = ids
	}
	r := recall.AtK(got, truth, k)
	t.Logf("distributed recall@10 = %.3f (evals=%d expansions=%d supersteps=%d)",
		r, stats.DistEvals, stats.Expansions, stats.Supersteps)
	if r < 0.85 {
		t.Errorf("recall = %.3f, want >= 0.85", r)
	}
	if stats.DistEvals == 0 || stats.Expansions == 0 || stats.Supersteps == 0 {
		t.Errorf("stats not collected: %+v", stats)
	}
	// Far fewer evaluations than brute force.
	if stats.DistEvals >= int64(len(data)*len(queries))/2 {
		t.Errorf("distributed search evaluated %d distances (brute force: %d)",
			stats.DistEvals, len(data)*len(queries))
	}
}

func TestDistributedMatchesSharedMemoryQuality(t *testing.T) {
	data := clusteredData(2, 1000, 6)
	queries := clusteredData(2, 40, 6)[:40]
	const k = 8
	truth := brute.TruthIDs(brute.QueryKNN(data, queries, k, metric.SquaredL2Float32, 0))

	dres, _ := runDistributedQueries(t, 3, data, queries, k, Options{L: k, Epsilon: 0.2})
	dGot := make([][]knng.ID, len(dres))
	for i, ns := range dres {
		ids := make([]knng.ID, len(ns))
		for j, e := range ns {
			ids[j] = e.ID
		}
		dGot[i] = ids
	}
	dRecall := recall.AtK(dGot, truth, k)

	// Shared-memory reference on an equivalently built gathered graph.
	w := ygm.NewLocalWorld(3)
	var mu sync.Mutex
	var g *knng.Graph
	err := w.Run(func(c *ygm.Comm) error {
		shard := core.Partition(data, c.Rank(), c.NRanks())
		res, err := core.Build(c, shard, metric.SquaredL2Float32, core.DefaultConfig(k))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			g = res.Graph
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sres, _ := search.Batch(g, data, metric.SquaredL2Float32, queries,
		search.Options{L: k, Epsilon: 0.2, Seed: 5}, 1)
	sRecall := recall.AtK(search.IDs(sres), truth, k)

	t.Logf("distributed recall=%.3f, shared-memory recall=%.3f", dRecall, sRecall)
	if dRecall < sRecall-0.08 {
		t.Errorf("distributed recall %.3f well below shared-memory %.3f", dRecall, sRecall)
	}
}

func TestSingleRankDistributedQuery(t *testing.T) {
	data := clusteredData(3, 400, 5)
	queries := data[:10]
	results, _ := runDistributedQueries(t, 1, data, queries, 5, Options{L: 5, Epsilon: 0.1})
	for qi, ns := range results {
		if ns[0].ID != knng.ID(qi) {
			t.Errorf("query %d: self not first (%v)", qi, ns[0])
		}
	}
}

func TestQueryVectorCacheIsReleased(t *testing.T) {
	data := clusteredData(4, 500, 5)
	queries := clusteredData(4, 20, 5)[:20]
	w := ygm.NewLocalWorld(3)
	leftovers := make([]int, 3)
	err := w.Run(func(c *ygm.Comm) error {
		shard := core.Partition(data, c.Rank(), c.NRanks())
		res, err := core.Build(c, shard, metric.SquaredL2Float32, core.DefaultConfig(6))
		if err != nil {
			return err
		}
		eng := New(c, shard, res.Local, metric.SquaredL2Float32)
		if _, _, err := eng.Run(queries, Options{L: 6, Epsilon: 0.1}); err != nil {
			return err
		}
		c.Barrier()
		leftovers[c.Rank()] = len(eng.qvecs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, n := range leftovers {
		if n != 0 {
			t.Errorf("rank %d still caches %d query vectors", rank, n)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	o := Options{}
	if err := o.fill(); err == nil {
		t.Error("L=0 accepted")
	}
	o = Options{L: 5}
	if err := o.fill(); err != nil {
		t.Fatal(err)
	}
	if o.Beam != 2 || o.Seeds != 16 || o.Seed != 1 {
		t.Errorf("defaults: %+v", o)
	}
}

func TestBeamWidthTradeoff(t *testing.T) {
	data := clusteredData(5, 800, 6)
	queries := clusteredData(5, 30, 6)[:30]
	_, narrow := runDistributedQueries(t, 2, data, queries, 6, Options{L: 6, Beam: 1})
	_, wide := runDistributedQueries(t, 2, data, queries, 6, Options{L: 6, Beam: 8})
	t.Logf("beam=1: steps=%d evals=%d; beam=8: steps=%d evals=%d",
		narrow.Supersteps, narrow.DistEvals, wide.Supersteps, wide.DistEvals)
	if wide.Supersteps >= narrow.Supersteps {
		t.Errorf("wider beam did not reduce supersteps: %d vs %d", wide.Supersteps, narrow.Supersteps)
	}
}

// TestQueryAfterBuildRegistrationStress hammers the hand-over from one
// protocol to the next on a shared comm: a rank released from Build's
// final barrier registers the dq.* handlers and seeds its queries while
// a slower rank may still be draining inside that barrier with those
// handler IDs unknown ("received unknown handler" in dispatch). Run
// opens with a quiescence point so every rank has registered before any
// rank sends; many short Build → New → Run hand-overs on three ranks
// give the overtaking schedule a chance to occur (scripts/ci.sh repeats
// it under the race detector, whose slowdown widens the window).
func TestQueryAfterBuildRegistrationStress(t *testing.T) {
	data := clusteredData(21, 150, 6)
	queries := data[:9]
	const k = 6
	for iter := 0; iter < 40; iter++ {
		res, _ := runDistributedQueries(t, 3, data, queries, k, Options{L: 3, Epsilon: 0.1, Seed: int64(iter)})
		if len(res) != len(queries) {
			t.Fatalf("iteration %d: %d results for %d queries", iter, len(res), len(queries))
		}
	}
}
