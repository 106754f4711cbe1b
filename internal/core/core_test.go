package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dnnd/internal/brute"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/ygm"
)

// clusteredData generates a Gaussian-mixture dataset, the structure NN-
// Descent exploits (neighbors of neighbors are neighbors).
func clusteredData(rng *rand.Rand, n, dim, clusters int) [][]float32 {
	centers := make([][]float32, clusters)
	for c := range centers {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32() * 10
		}
		centers[c] = v
	}
	data := make([][]float32, n)
	for i := range data {
		c := centers[rng.Intn(clusters)]
		v := make([]float32, dim)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64())*0.5
		}
		data[i] = v
	}
	return data
}

// buildOnWorld runs Build over a local world and returns rank 0's
// result (with the gathered graph).
func buildOnWorld(t *testing.T, nranks int, data [][]float32, cfg Config) *Result {
	t.Helper()
	w := ygm.NewLocalWorld(nranks)
	var mu sync.Mutex
	var root *Result
	err := w.Run(func(c *ygm.Comm) error {
		shard := Partition(data, c.Rank(), c.NRanks())
		res, err := Build(c, shard, metric.SquaredL2Float32, cfg)
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

func graphRecall(t *testing.T, g *knng.Graph, data [][]float32, k int) float64 {
	t.Helper()
	truthGraph := brute.KNNGraph(data, k, metric.SquaredL2Float32, 0)
	return g.Recall(truthGraph.TopIDs(k), k)
}

func TestBuildRecallSingleRank(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := clusteredData(rng, 600, 8, 12)
	cfg := DefaultConfig(10)
	cfg.Optimize = false
	res := buildOnWorld(t, 1, data, cfg)
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	r := graphRecall(t, res.Graph, data, 10)
	t.Logf("recall=%.3f iters=%d distEvals=%d", r, res.Iters, res.DistEvals)
	if r < 0.90 {
		t.Errorf("recall = %.3f, want >= 0.90", r)
	}
	// NN-Descent must beat brute force on distance evaluations: the
	// whole point of the algorithm (O(n^1.14) vs O(n^2)).
	bruteEvals := int64(len(data)) * int64(len(data)-1)
	if res.DistEvals >= bruteEvals {
		t.Errorf("distance evals %d not below brute force %d", res.DistEvals, bruteEvals)
	}
}

func TestBuildRecallMultiRank(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := clusteredData(rng, 800, 8, 10)
	cfg := DefaultConfig(10)
	cfg.Optimize = false
	for _, nranks := range []int{2, 4} {
		res := buildOnWorld(t, nranks, data, cfg)
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("nranks=%d: %v", nranks, err)
		}
		r := graphRecall(t, res.Graph, data, 10)
		t.Logf("nranks=%d recall=%.3f iters=%d", nranks, r, res.Iters)
		if r < 0.90 {
			t.Errorf("nranks=%d: recall = %.3f, want >= 0.90", nranks, r)
		}
		// Every vertex must have a full list.
		for v := 0; v < res.Graph.NumVertices(); v++ {
			if res.Graph.Degree(knng.ID(v)) != 10 {
				t.Fatalf("nranks=%d vertex %d degree %d", nranks, v, res.Graph.Degree(knng.ID(v)))
			}
		}
	}
}

func TestUnoptimizedProtocolSameQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := clusteredData(rng, 500, 6, 8)
	cfgOpt := DefaultConfig(8)
	cfgOpt.Optimize = false
	cfgUn := cfgOpt
	cfgUn.Protocol = Unoptimized()

	resOpt := buildOnWorld(t, 3, data, cfgOpt)
	resUn := buildOnWorld(t, 3, data, cfgUn)
	rOpt := graphRecall(t, resOpt.Graph, data, 8)
	rUn := graphRecall(t, resUn.Graph, data, 8)
	t.Logf("optimized recall=%.3f, unoptimized recall=%.3f", rOpt, rUn)
	if rOpt < 0.88 || rUn < 0.88 {
		t.Errorf("recall too low: opt=%.3f unopt=%.3f", rOpt, rUn)
	}
}

// TestCommSavingReducesTraffic reproduces Figure 4's claim at test
// scale: the optimized protocol sends roughly half the neighbor-check
// messages and bytes.
func TestCommSavingReducesTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	data := clusteredData(rng, 500, 16, 8)
	cfgOpt := DefaultConfig(10)
	cfgOpt.Optimize = false
	cfgOpt.Seed = 3
	cfgUn := cfgOpt
	cfgUn.Protocol = Unoptimized()

	resOpt := buildOnWorld(t, 4, data, cfgOpt)
	resUn := buildOnWorld(t, 4, data, cfgUn)

	t.Logf("optimized:   msgs=%d bytes=%d", resOpt.Comm.CheckMsgs, resOpt.Comm.CheckBytes)
	t.Logf("unoptimized: msgs=%d bytes=%d", resUn.Comm.CheckMsgs, resUn.Comm.CheckBytes)

	// Per generated pair the unoptimized flow sends 2x Type1 + 2x
	// Type2(vector); the optimized flow sends 1x Type1 + <=1x Type2+ +
	// <=1x Type3. Bytes are dominated by the vector messages, so the
	// ratio should be well under 0.7 even though the runs converge
	// along different sampling paths.
	byteRatio := float64(resOpt.Comm.CheckBytes) / float64(resUn.Comm.CheckBytes)
	if byteRatio > 0.70 {
		t.Errorf("optimized/unoptimized check bytes = %.2f, want <= 0.70", byteRatio)
	}
	msgRatio := float64(resOpt.Comm.CheckMsgs) / float64(resUn.Comm.CheckMsgs)
	if msgRatio > 0.85 {
		t.Errorf("optimized/unoptimized check msgs = %.2f, want <= 0.85", msgRatio)
	}
}

func TestOptimizePhase(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	data := clusteredData(rng, 400, 6, 8)
	cfg := DefaultConfig(8)
	cfg.Optimize = true
	cfg.PruneFactor = 1.5
	res := buildOnWorld(t, 3, data, cfg)
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	maxDeg := res.Graph.MaxDegree()
	if maxDeg > 12 { // K * 1.5
		t.Errorf("max degree %d exceeds K*m = 12", maxDeg)
	}
	// Reverse merging should push many degrees above K.
	above := 0
	for v := 0; v < res.Graph.NumVertices(); v++ {
		if res.Graph.Degree(knng.ID(v)) > 8 {
			above++
		}
	}
	if above == 0 {
		t.Error("optimization did not add any reverse edges")
	}
	if res.Comm.OptMsgs == 0 {
		t.Error("no optimization-phase messages counted")
	}
}

func TestBuildJaccard(t *testing.T) {
	// Sparse itemset data under Jaccard distance (the Kosarak shape):
	// exercises variable-length uint32 vectors end to end.
	rng := rand.New(rand.NewSource(16))
	n := 300
	data := make([][]uint32, n)
	for i := range data {
		base := uint32(rng.Intn(10)) * 100
		m := map[uint32]bool{}
		for j := 0; j < 15+rng.Intn(10); j++ {
			m[base+uint32(rng.Intn(60))] = true
		}
		set := make([]uint32, 0, len(m))
		for v := range m {
			set = append(set, v)
		}
		for a := 1; a < len(set); a++ { // insertion sort
			x := set[a]
			b := a - 1
			for b >= 0 && set[b] > x {
				set[b+1] = set[b]
				b--
			}
			set[b+1] = x
		}
		data[i] = set
	}

	w := ygm.NewLocalWorld(2)
	var root *Result
	var mu sync.Mutex
	err := w.Run(func(c *ygm.Comm) error {
		shard := Partition(data, c.Rank(), c.NRanks())
		cfg := DefaultConfig(5)
		cfg.Optimize = false
		res, err := Build(c, shard, metric.JaccardUint32, cfg)
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
	truth := brute.KNNGraph(data, 5, metric.JaccardUint32, 0)
	r := root.Graph.Recall(truth.TopIDs(5), 5)
	t.Logf("jaccard recall=%.3f", r)
	if r < 0.80 {
		t.Errorf("jaccard recall = %.3f, want >= 0.80", r)
	}
}

func TestBuildUint8(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 300
	data := make([][]uint8, n)
	for i := range data {
		base := uint8(rng.Intn(8)) * 30
		v := make([]uint8, 12)
		for j := range v {
			v[j] = base + uint8(rng.Intn(20))
		}
		data[i] = v
	}
	w := ygm.NewLocalWorld(2)
	var root *Result
	var mu sync.Mutex
	err := w.Run(func(c *ygm.Comm) error {
		shard := Partition(data, c.Rank(), c.NRanks())
		cfg := DefaultConfig(5)
		cfg.Optimize = false
		res, err := Build(c, shard, metric.SquaredL2Uint8, cfg)
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
	truth := brute.KNNGraph(data, 5, metric.SquaredL2Uint8, 0)
	r := root.Graph.Recall(truth.TopIDs(5), 5)
	t.Logf("uint8 recall=%.3f", r)
	if r < 0.85 {
		t.Errorf("uint8 recall = %.3f, want >= 0.85", r)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		n      int
	}{
		{func(c *Config) { c.K = 0 }, 100},
		{func(c *Config) { c.K = 100 }, 100},
		{func(c *Config) { c.Rho = 0 }, 100},
		{func(c *Config) { c.Rho = 1.5 }, 100},
		{func(c *Config) { c.Delta = -1 }, 100},
		{func(c *Config) { c.PruneFactor = 0.5 }, 100},
		{func(c *Config) { c.PruneFactor = -1 }, 100},
		{func(c *Config) { c.Protocol = PruneDistant + 1 }, 100},
		{func(c *Config) {}, 1},
	}
	for i, tc := range cases {
		cfg := DefaultConfig(10)
		tc.mutate(&cfg)
		if err := cfg.Validate(tc.n); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cfg := Config{K: 5, Rho: 0.5} // rest defaulted
	if err := cfg.Validate(100); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
	if cfg.MaxIters == 0 || cfg.BatchSize == 0 || cfg.PruneFactor < 1 {
		t.Errorf("defaults not filled: %+v", cfg)
	}
}

func TestRoundsRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	data := clusteredData(rng, 300, 4, 5)
	cfg := DefaultConfig(6)
	cfg.Optimize = false
	res := buildOnWorld(t, 2, data, cfg)
	if len(res.Rounds) != res.Iters || res.Iters < 1 {
		t.Fatalf("rounds=%d iters=%d", len(res.Rounds), res.Iters)
	}
	// Updates should (weakly) decline as the graph converges; at least
	// the last round must be below the first for a converged run.
	if res.Iters > 2 && res.Rounds[res.Iters-1].Updates >= res.Rounds[0].Updates {
		t.Errorf("no convergence trend: %+v", res.Rounds)
	}
}

// TestZeroUpdateRoundStops: at 60 points Delta*K*N is 0.6, which
// truncates to a threshold of 0; the descent must still end at its
// first round without an update instead of running to MaxIters.
func TestZeroUpdateRoundStops(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := clusteredData(rng, 60, 8, 4)
	cfg := DefaultConfig(10)
	res := buildOnWorld(t, 1, data, cfg)
	last := len(res.Rounds) - 1
	if res.Iters >= cfg.MaxIters || res.Rounds[last].Updates != 0 {
		t.Fatalf("descent ran %d rounds and ended on %d updates; want a stop at the first zero-update round: %+v",
			res.Iters, res.Rounds[last].Updates, res.Rounds)
	}
	for i, r := range res.Rounds[:last] {
		if r.Updates == 0 {
			t.Fatalf("round %d had no update but the descent went on: %+v", i+1, res.Rounds)
		}
	}
}

func TestBuildWarmIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := clusteredData(rng, 600, 8, 10)
	extra := clusteredData(rand.New(rand.NewSource(22)), 100, 8, 10)
	combined := append(append([][]float32{}, base...), extra...)

	cfg := DefaultConfig(10)
	cfg.Optimize = false

	// Full build over the base set provides the warm graph.
	prior := buildOnWorld(t, 2, base, cfg)

	// Warm-started build over base+extra.
	w := ygm.NewLocalWorld(2)
	var mu sync.Mutex
	var warm *Result
	err := w.Run(func(c *ygm.Comm) error {
		shard := Partition(combined, c.Rank(), c.NRanks())
		res, err := BuildIncrementalKernel(c, shard, metric.Kernel[float32]{Fn: metric.SquaredL2Float32}, cfg, prior.Graph, nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			warm = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Graph.Validate(); err != nil {
		t.Fatal(err)
	}

	// Quality must match a cold rebuild...
	cold := buildOnWorld(t, 2, combined, cfg)
	truth := brute.KNNGraph(combined, 10, metric.SquaredL2Float32, 0)
	warmRecall := warm.Graph.Recall(truth.TopIDs(10), 10)
	coldRecall := cold.Graph.Recall(truth.TopIDs(10), 10)
	t.Logf("warm recall=%.3f (evals %d), cold recall=%.3f (evals %d)",
		warmRecall, warm.DistEvals, coldRecall, cold.DistEvals)
	if warmRecall < coldRecall-0.05 {
		t.Errorf("warm recall %.3f well below cold %.3f", warmRecall, coldRecall)
	}
	// ...at a fraction of the distance evaluations.
	if warm.DistEvals >= cold.DistEvals/2 {
		t.Errorf("warm build evals %d not well below cold %d", warm.DistEvals, cold.DistEvals)
	}
}

func TestBuildWarmRejectsOversizedPrior(t *testing.T) {
	data := clusteredData(rand.New(rand.NewSource(23)), 50, 4, 3)
	w := ygm.NewLocalWorld(1)
	err := w.Run(func(c *ygm.Comm) error {
		shard := Partition(data, c.Rank(), c.NRanks())
		cfg := DefaultConfig(5)
		_, err := BuildIncrementalKernel(c, shard, metric.Kernel[float32]{Fn: metric.SquaredL2Float32}, cfg, knng.NewGraph(100), nil)
		if err == nil {
			return errors.New("oversized prior accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPhaseTimingsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	data := clusteredData(rng, 300, 6, 5)
	cfg := DefaultConfig(8)
	res := buildOnWorld(t, 2, data, cfg)
	p := res.Phases
	if p.Init <= 0 || p.Checks <= 0 || p.Reverse <= 0 || p.Sample <= 0 {
		t.Errorf("phase timings missing: %+v", p)
	}
	if p.Optimize <= 0 || p.Gather <= 0 {
		t.Errorf("optimize/gather timings missing: %+v", p)
	}
	if p.Total() <= 0 {
		t.Error("total is zero")
	}
}

// TestPairIterEnumeration checks the neighbor-check pair iterator
// against a direct enumeration of Algorithm 1's pair set: new x new
// (upper triangle) plus new x old, per vertex.
func TestPairIterEnumeration(t *testing.T) {
	b := &builder[float32]{
		news: [][]knng.ID{
			{1, 2, 3},
			{},
			{7},
		},
		olds: [][]knng.ID{
			{4, 5},
			{6},
			{},
		},
	}
	type pair struct{ a, b knng.ID }
	var want []pair
	for vi := range b.news {
		nw, od := b.news[vi], b.olds[vi]
		for i := 0; i < len(nw); i++ {
			for j := i + 1; j < len(nw); j++ {
				want = append(want, pair{nw[i], nw[j]})
			}
			for _, u := range od {
				want = append(want, pair{nw[i], u})
			}
		}
	}

	it := &pairIter{}
	var got []pair
	for {
		u1, u2, ok := b.emitChecks(it)
		if !ok {
			break
		}
		got = append(got, pair{u1, u2})
	}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d: %v vs %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
	// pairCount must agree with the enumeration.
	if c := b.pairCount(); c != len(want) {
		t.Fatalf("pairCount = %d, want %d", c, len(want))
	}
}

// TestPairIterSkipsDuplicateIDs: an id appearing in both new and old
// (possible after reverse-sample union) must not produce (u, u) pairs.
func TestPairIterSkipsDuplicateIDs(t *testing.T) {
	b := &builder[float32]{
		news: [][]knng.ID{{1, 2}},
		olds: [][]knng.ID{{2, 3}},
	}
	it := &pairIter{}
	for {
		u1, u2, ok := b.emitChecks(it)
		if !ok {
			break
		}
		if u1 == u2 {
			t.Fatalf("self pair (%d, %d) emitted", u1, u2)
		}
	}
}

// Property: for random new/old lists the iterator yields exactly
// new-x-new upper triangle + new-x-old, minus self pairs.
func TestQuickPairIter(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := rng.Intn(6) + 1
		b := &builder[float32]{
			news: make([][]knng.ID, nv),
			olds: make([][]knng.ID, nv),
		}
		expected := 0
		for vi := 0; vi < nv; vi++ {
			nn, no := rng.Intn(5), rng.Intn(5)
			for i := 0; i < nn; i++ {
				b.news[vi] = append(b.news[vi], knng.ID(rng.Intn(20)))
			}
			for i := 0; i < no; i++ {
				b.olds[vi] = append(b.olds[vi], knng.ID(rng.Intn(20)))
			}
			// Count non-self pairs directly.
			nw, od := b.news[vi], b.olds[vi]
			for i := 0; i < len(nw); i++ {
				for j := i + 1; j < len(nw); j++ {
					if nw[i] != nw[j] {
						expected++
					}
				}
				for _, u := range od {
					if nw[i] != u {
						expected++
					}
				}
			}
		}
		it := &pairIter{}
		got := 0
		for {
			u1, u2, ok := b.emitChecks(it)
			if !ok {
				break
			}
			if u1 == u2 {
				return false
			}
			got++
		}
		return got == expected
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
