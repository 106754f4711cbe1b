// Package brute computes exact k-nearest neighbors by exhaustive
// comparison. The paper uses brute force to produce the ground truth
// for the Section 5.2 graph-quality evaluation; it is also the O(n^2)
// cost baseline NN-Descent's O(n^1.14) empirical cost is contrasted
// with.
package brute

import (
	"runtime"
	"sync"

	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/wire"
)

// KNNGraph builds the exact k-NNG of data: for every point, its k
// nearest other points under dist. Work is split over workers
// goroutines (0 means GOMAXPROCS).
func KNNGraph[T wire.Scalar](data [][]T, k int, dist metric.Func[T], workers int) *knng.Graph {
	n := len(data)
	g := knng.NewGraph(n)
	kern := metric.KernelOf(dist)
	parallelFor(n, workers, func(v int) {
		l := knng.NewNeighborList(k)
		scan(kern, data[v], data, v, l)
		g.Neighbors[v] = l.Sorted()
	})
	return g
}

// QueryKNN returns, for each query, the IDs and distances of its k
// nearest points in data (queries need not be members of data).
func QueryKNN[T wire.Scalar](data, queries [][]T, k int, dist metric.Func[T], workers int) [][]knng.Neighbor {
	out := make([][]knng.Neighbor, len(queries))
	kern := metric.KernelOf(dist)
	parallelFor(len(queries), workers, func(q int) {
		l := knng.NewNeighborList(k)
		scan(kern, queries[q], data, -1, l)
		out[q] = l.Sorted()
	})
	return out
}

// scanBlock is how many rows scan scores per EvalMany call.
const scanBlock = 64

// scan offers every row of data except row skip to l, in index order.
// Rows are scored scanBlock at a time through the kernel's block form,
// then applied one by one, so l sees exactly the Update sequence of a
// row-by-row loop.
func scan[T wire.Scalar](kern metric.Kernel[T], q []T, data [][]T, skip int, l *knng.NeighborList) {
	var ds [scanBlock]float32
	for lo := 0; lo < len(data); lo += scanBlock {
		rows := data[lo:min(lo+scanBlock, len(data))]
		kern.EvalMany(q, rows, nil, ds[:len(rows)])
		for i, d := range ds[:len(rows)] {
			if u := lo + i; u != skip && d < l.FarthestDist() {
				l.Update(knng.ID(u), d, false)
			}
		}
	}
}

// TruthIDs strips distances from QueryKNN output, the usual ground
// truth exchange format.
func TruthIDs(res [][]knng.Neighbor) [][]knng.ID {
	out := make([][]knng.ID, len(res))
	for i, ns := range res {
		ids := make([]knng.ID, len(ns))
		for j, n := range ns {
			ids[j] = n.ID
		}
		out[i] = ids
	}
	return out
}

// parallelFor runs body(i) for i in [0, n) across workers goroutines.
func parallelFor(n, workers int, body func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
