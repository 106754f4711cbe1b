package search

import (
	"sync"

	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/splitmix"
	"dnnd/internal/wire"
)

// Context is the reusable per-worker scratch state of a query: the
// epoch-marked visited set (the PR 1 construction pattern, via
// knng.VisitSet), the frontier and result heaps, the sorted-output
// buffer, the block-scoring scratch and a reseedable RNG. A context
// pooled per worker makes SearchCtx allocation-free at steady state —
// the dense visited bitset the one-shot path used to allocate per query
// (~N/8 bytes, the serve hot path's dominant GC load) becomes a
// once-per-context array cleared in O(1) by epoch bump.
//
// A Context is not safe for concurrent use; results returned by the
// *Ctx entry points alias its scratch and are valid only until the
// next query on the same context.
type Context[T wire.Scalar] struct {
	visited knng.VisitSet
	front   knng.MinQueue
	results knng.NeighborList // traversal result heap
	out     []knng.Neighbor   // sorted output scratch (returned view)
	rng     rng               // seeded per query by the entry points

	// One block of candidates: their IDs, rows and distances.
	ids   []knng.ID
	rows  [][]T
	dists []float32

	// Per-query state read by scoreBlock.
	q    []T
	data [][]T
	kern metric.Kernel[T]
	st   Stats
}

// NewContext returns an empty context; its buffers grow on first use
// and are retained across queries.
func NewContext[T wire.Scalar]() *Context[T] {
	return &Context[T]{}
}

// scoreBlock computes the exact distances from the query to ids into
// the context's distance scratch, counts them, and returns them
// aligned with ids.
func (sc *Context[T]) scoreBlock(ids []knng.ID) []float32 {
	if len(ids) == 0 {
		return nil
	}
	if cap(sc.dists) < len(ids) {
		sc.dists = make([]float32, 2*len(ids))
	}
	out := sc.dists[:len(ids)]
	sc.st.DistEvals += int64(len(ids))
	rows := sc.rows[:0]
	for _, id := range ids {
		rows = append(rows, sc.data[id])
	}
	sc.rows = rows
	sc.kern.EvalMany(sc.q, rows, nil, out)
	return out
}

// rng draws a query's entry points: one word of state per query.
type rng struct{ splitmix.Stream }

func (r *rng) seed(s int64)   { r.Stream = splitmix.Stream(s) }
func (r *rng) intn(n int) int { return r.Intn(n) }

// SearchCtx is Query on pooled scratch: bit-identical results for the
// same (graph, data, dist, q, opt, seed), but allocation-free at
// steady state. The returned slice aliases sc's scratch — copy it out
// before the next query on sc.
func SearchCtx[T wire.Scalar](sc *Context[T], g *knng.Graph, data [][]T, dist metric.Func[T], q []T, opt Options, seed int64) ([]knng.Neighbor, Stats) {
	sc.rng.seed(seed)
	return searchOn(sc, g, data, dist, q, opt)
}

// searchOn runs the query on sc's scratch; the caller has already
// seeded sc.rng for this query.
func searchOn[T wire.Scalar](sc *Context[T], g *knng.Graph, data [][]T, dist metric.Func[T], q []T, opt Options) ([]knng.Neighbor, Stats) {
	n := g.NumVertices()
	if n == 0 || opt.L < 1 {
		return nil, Stats{}
	}
	sc.st = Stats{}
	sc.q, sc.data, sc.kern = q, data, metric.KernelOf(dist)
	results := traverse(sc, g, opt)
	sc.out = results.SortedInto(sc.out)
	return sc.out, sc.st
}

// Package-level context pools backing the thin one-shot wrappers
// (Query, Batch, ...): one pool per scalar instantiation, so repeated
// one-shot calls reuse scratch instead of re-allocating the visited
// set. Long-lived callers (the serve workers) hold their own contexts.
var ctxPools [3]sync.Pool

func ctxPool[T wire.Scalar]() *sync.Pool {
	var z T
	switch any(z).(type) {
	case uint8:
		return &ctxPools[0]
	case uint32:
		return &ctxPools[1]
	default:
		return &ctxPools[2]
	}
}

func getCtx[T wire.Scalar]() *Context[T] {
	if sc, ok := ctxPool[T]().Get().(*Context[T]); ok {
		return sc
	}
	return NewContext[T]()
}

func putCtx[T wire.Scalar](sc *Context[T]) {
	// Drop dataset references so a pooled context does not pin a store
	// the caller has released.
	sc.q, sc.data, sc.kern = nil, nil, metric.Kernel[T]{}
	clear(sc.rows[:cap(sc.rows)])
	ctxPool[T]().Put(sc)
}
