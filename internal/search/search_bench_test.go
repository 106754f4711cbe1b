package search

import (
	"math/rand"
	"runtime"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
)

// benchGraph is the 5000-point, 16-d, k=10 optimized graph both
// benchmarks walk (the Figure 2 workload's unit of work).
func benchGraph() (*knng.Graph, [][]float32) {
	rng := rand.New(rand.NewSource(1))
	const n, dim = 5000, 16
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		data[i] = v
	}
	g := brute.KNNGraph(data, 10, metric.SquaredL2Float32, 0)
	g.Optimize(10, 1.5)
	return g, data
}

// BenchmarkQuery measures one epsilon-greedy graph query.
func BenchmarkQuery(b *testing.B) {
	g, data := benchGraph()
	q := data[42]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Query(g, data, metric.SquaredL2Float32, q, Options{L: 10, Epsilon: 0.1}, int64(i))
	}
}

// BenchmarkBatch measures Batch's fan-out: GOMAXPROCS workers over a
// 4000-query block, reported as queries per second of wall time.
func BenchmarkBatch(b *testing.B) {
	g, data := benchGraph()
	const nq = 4000
	rng := rand.New(rand.NewSource(2))
	queries := make([][]float32, nq)
	for i := range queries {
		queries[i] = data[rng.Intn(len(data))]
	}
	opt := Options{L: 10, Epsilon: 0.1, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Batch(g, data, metric.SquaredL2Float32, queries, opt, runtime.GOMAXPROCS(0))
	}
	b.ReportMetric(float64(nq*b.N)/b.Elapsed().Seconds(), "queries/s")
}
