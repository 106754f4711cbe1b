// Package search implements the k-NNG approximate nearest-neighbor
// query algorithm of Section 3.3: greedy best-first graph traversal
// from random entry points with a frontier heap and a result heap, plus
// PyNNDescent's epsilon parameter that widens the explored region.
package search

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/wire"
)

// Options configures a query.
type Options struct {
	// L is the number of nearest neighbors to return; it may exceed
	// the graph's k.
	L int
	// Epsilon >= 0 widens the frontier-admission bound to
	// (1+Epsilon)*dmax (0 = pure greedy; the paper sweeps 0.1-0.4).
	Epsilon float64
	// Seed drives entry-point selection.
	Seed int64
	// Entries optionally supplies search starting points (e.g. from a
	// random-projection tree forest, PyNNDescent-style); random points
	// top up to the seed floor when fewer are given.
	Entries []knng.ID
	// EntriesFunc, when set, provides per-query starting points to
	// Batch (it overrides Entries there).
	EntriesFunc func(queryIndex int) []knng.ID
	// Deadline, when non-zero, is checked once per expanded vertex: once
	// time.Now passes it, the query stops early and returns the best
	// results found so far, with Stats.Truncated set. Online servers use
	// it to cut off straggler queries.
	Deadline time.Time
	// Tombs, when non-nil, marks deleted vertices: they are never
	// returned as results but remain routable — the traversal still
	// scores them and expands through them, because until compaction
	// rewrites the graph they are load-bearing stepping stones in its
	// connectivity. A nil set costs one branch per candidate.
	Tombs *knng.TombSet

	// interrupt, when non-nil, is polled where Deadline is and stops the
	// query the same way when it returns true. Only in-package tests set
	// it, to truncate a walk after an exact number of expansions; it
	// must not consume the query's RNG.
	interrupt func() bool
}

// minSeedPoints floors the number of random entry points per query.
const minSeedPoints = 16

// Stats reports the cost of one query (or the sum over a batch).
type Stats struct {
	// DistEvals counts distance computations.
	DistEvals int64
	// Visited counts vertices whose neighbor lists were expanded.
	Visited int64
	// Truncated counts queries stopped early by Options.Deadline (0 or
	// 1 for a single Query).
	Truncated int64
}

// Query finds the L approximate nearest neighbors of q in the graph.
// data must be the dataset the graph was built over. The returned list
// is sorted by ascending distance. seed drives entry-point selection;
// the same seed reproduces the same traversal bit for bit.
//
// Query is a thin wrapper over a pooled Context; long-lived callers
// that issue many queries per worker should hold a Context and use
// SearchCtx to skip the result-copy this wrapper makes.
func Query[T wire.Scalar](g *knng.Graph, data [][]T, dist metric.Func[T], q []T, opt Options, seed int64) ([]knng.Neighbor, Stats) {
	sc := getCtx[T]()
	sc.rng.seed(seed)
	ns, st := searchOn(sc, g, data, dist, q, opt)
	out := append([]knng.Neighbor(nil), ns...)
	putCtx(sc)
	return out, st
}

// horizon is the epsilon-relaxed result bound: frontier points and
// candidates beyond it cannot improve the result list. eps1 is
// 1+Options.Epsilon.
func horizon(results *knng.NeighborList, eps1 float64) float64 {
	if !results.Full() {
		return math.Inf(1)
	}
	return eps1 * float64(results.FarthestDist())
}

// traverse is the greedy best-first graph walk of Section 3.3, keeping
// the opt.L best vertices seen. All working state (visited set,
// frontier, result heap, block scratch, stats) lives on sc, so the walk
// allocates nothing once the context has warmed up.
//
// Distances are computed a block at a time: the seed set is one block,
// and each expansion's unvisited neighbors are another. Which IDs a
// block holds never depends on its scores (Visit marks them as they are
// collected), so scoring a block first and then applying the horizon
// test, results.Update and front.Push candidate by candidate, in
// collection order, is the same walk as scoring one neighbor at a time.
func traverse[T wire.Scalar](sc *Context[T], g *knng.Graph, opt Options) *knng.NeighborList {
	n := g.NumVertices()
	l := opt.L
	if l > n {
		l = n
	}
	results := &sc.results
	results.Reset(l)
	front := &sc.front
	front.Reset()
	sc.visited.Begin(n)

	// Seed with entry points: caller-provided ones first (e.g. rp-tree
	// leaf members), then random points up to a floor (Section 3.3
	// uses l random points; the floor makes tiny-l queries robust
	// against local minima).
	seeds := l
	if seeds < minSeedPoints {
		seeds = minSeedPoints
	}
	if seeds > n {
		seeds = n
	}
	tombs := opt.Tombs
	ids := sc.ids[:0]
	for _, id := range opt.Entries {
		if int(id) < n && sc.visited.Visit(id) {
			ids = append(ids, id)
		}
	}
	for attempts := 0; len(ids) < seeds && attempts < 4*seeds+16; attempts++ {
		if id := knng.ID(sc.rng.intn(n)); sc.visited.Visit(id) {
			ids = append(ids, id)
		}
	}
	for i, d := range sc.scoreBlock(ids) {
		id := ids[i]
		if !tombs.Dead(id) {
			results.Update(id, d, false)
		}
		front.Push(id, d)
	}

	eps1 := 1 + opt.Epsilon
	hasDeadline := !opt.Deadline.IsZero()
	for !front.Empty() {
		if opt.interrupt != nil && opt.interrupt() {
			sc.st.Truncated = 1
			break
		}
		if hasDeadline && time.Now().After(opt.Deadline) {
			sc.st.Truncated = 1
			break
		}
		p, pd := front.Pop()
		// Stop when the closest frontier point is already beyond the
		// (epsilon-relaxed) result horizon.
		if float64(pd) > horizon(results, eps1) {
			break
		}
		sc.st.Visited++
		ids = ids[:0]
		for _, e := range g.Neighbors[p] {
			if sc.visited.Visit(e.ID) {
				ids = append(ids, e.ID)
			}
		}
		for i, d := range sc.scoreBlock(ids) {
			if float64(d) < horizon(results, eps1) {
				id := ids[i]
				if !tombs.Dead(id) {
					results.Update(id, d, false)
				}
				front.Push(id, d)
			}
		}
	}
	sc.ids = ids
	return results
}

// Batch answers many queries in parallel (workers <= 0 means
// GOMAXPROCS, capped at the query count) and returns per-query results
// plus summed stats. Each worker reseeds its context's splitmix64
// stream per query from opt.Seed and the query index, bit-identical to
// the one-shot Query path at the same seed, and takes its entry points
// from opt.EntriesFunc when set. Each worker claims query indices from
// one shared atomic cursor and runs them on one context checked out of
// the package pool; a claim is one atomic add and wakes no other
// goroutine. Claim order cannot matter: each query's seed and output
// slot depend only on its index. Results are detached copies — they
// never alias context scratch.
func Batch[T wire.Scalar](g *knng.Graph, data [][]T, dist metric.Func[T], queries [][]T, opt Options, workers int) ([][]knng.Neighbor, Stats) {
	nq := len(queries)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nq {
		workers = nq
	}
	if workers < 1 {
		workers = 1
	}
	out := make([][]knng.Neighbor, nq)
	stats := make([]Stats, nq)
	var wg sync.WaitGroup
	var cursor atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getCtx[T]()
			defer putCtx(sc)
			for {
				qi := int(cursor.Add(1) - 1)
				if qi >= nq {
					return
				}
				sc.rng.seed(opt.Seed*1_000_003 + int64(qi))
				qopt := opt
				if opt.EntriesFunc != nil {
					qopt.Entries = opt.EntriesFunc(qi)
				}
				ns, st := searchOn(sc, g, data, dist, queries[qi], qopt)
				out[qi] = append([]knng.Neighbor(nil), ns...)
				stats[qi] = st
			}
		}()
	}
	wg.Wait()
	var total Stats
	for _, s := range stats {
		total.add(s)
	}
	return out, total
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.DistEvals += o.DistEvals
	s.Visited += o.Visited
	s.Truncated += o.Truncated
}

// IDs extracts the neighbor IDs from a batch result, the recall
// package's exchange format.
func IDs(res [][]knng.Neighbor) [][]knng.ID {
	out := make([][]knng.ID, len(res))
	for i, ns := range res {
		ids := make([]knng.ID, len(ns))
		for j, e := range ns {
			ids[j] = e.ID
		}
		out[i] = ids
	}
	return out
}
