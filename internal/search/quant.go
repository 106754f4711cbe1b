package search

import (
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/metric/quant"
	"dnnd/internal/wire"
)

// quantOverFetch widens the traversal's result list under approximate
// scoring: the walk keeps 2L candidates so that quantization error in
// the ordering near the horizon cannot evict a true top-L neighbor
// before the exact re-rank sees it.
const quantOverFetch = 2

// QueryQuant answers a query with quantized first-pass scoring: the
// greedy traversal ranks candidates by code distance against view
// (one uint8 kernel pass per candidate instead of a float32 one),
// over-fetching quantOverFetch*L results, and only the surviving
// candidates get exact distances in a final re-rank. The traversal
// route may differ from Query's — this is the lossy, fast path; the
// recall contract is pinned by tests, not bit-identity. For native
// uint8 data the view is lossless, so only the re-rank is extra work.
//
// dist must be in the L2 family (the code-space bound is an L2 bound);
// sql2 works because x -> x² preserves the traversal ordering.
// QueryQuant is a thin wrapper over a pooled Context, like Query;
// long-lived callers should hold a Context and use SearchQuantCtx.
func QueryQuant[T wire.Scalar](g *knng.Graph, data [][]T, dist metric.Func[T], view *quant.View, q []T, opt Options, seed int64) ([]knng.Neighbor, Stats) {
	sc := getCtx[T]()
	sc.rng.seed(seed)
	ns, st := quantOn(sc, g, data, dist, view, q, opt)
	out := append([]knng.Neighbor(nil), ns...)
	putCtx(sc)
	return out, st
}

// BatchQuant answers many queries in parallel through QueryQuant; the
// same contract as Batch otherwise.
func BatchQuant[T wire.Scalar](g *knng.Graph, data [][]T, dist metric.Func[T], view *quant.View, queries [][]T, opt Options, workers int) ([][]knng.Neighbor, Stats) {
	return batchCore(len(queries), opt, workers,
		func(sc *Context[T], qi int, qopt Options) ([]knng.Neighbor, Stats) {
			return quantOn(sc, g, data, dist, view, queries[qi], qopt)
		})
}
