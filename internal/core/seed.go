package core

import (
	"slices"

	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/search"
	"dnnd/internal/wire"
)

// Search parameters of SeedAppended: L is the build's K, and the
// traversal is the Section 3.3 query at a fixed epsilon and seed, so a
// seeded prior depends only on its inputs.
const (
	seedEpsilon = 0.1
	seedSeed    = 1
)

// SeedAppended prepares the warm-start prior of an incremental build
// whose dataset extends past prior: every appended row (index >=
// prior.NumVertices()) is searched for on the prior graph (Section
// 3.3; dead vertices route but are never returned), and its cfg.K
// results become its initial list, flagged new. So the descent starts
// every appended row inside its neighborhood instead of among K random
// partners, and converges in fewer rounds.
//
// Without cfg.Optimize each (row, distance) pair is also offered to
// the found neighbor's list, flagged new, reusing the distance (the
// warm loader keeps the closest K): the descent's own lists are then
// the result, and a prior row learns an appended neighbor no other
// way. With cfg.Optimize the Section 4.5 reverse-edge merge adds that
// edge anyway, and an offer would only evict the row's farthest prior
// neighbor — a routing edge the merged graph would otherwise keep.
//
// prior is not modified: the returned graph covers len(data) rows and
// shares every row it did not extend. The second result is the
// search's distance evaluations. With nothing appended, prior comes
// back as is. The search runs on every core; its result does not
// depend on how the queries were spread over them.
func SeedAppended[T wire.Scalar](data [][]T, prior *knng.Graph, dead *knng.TombSet, dist metric.Func[T], cfg Config) (*knng.Graph, int64) {
	n0 := prior.NumVertices()
	if n0 == 0 || n0 >= len(data) {
		return prior, 0
	}
	opt := search.Options{L: cfg.K, Epsilon: seedEpsilon, Seed: seedSeed, Tombs: dead}
	found, st := search.Batch(prior, data[:n0], dist, data[n0:], opt, 0)

	g := knng.NewGraph(len(data))
	for u, ns := range prior.Neighbors {
		// Clipped, so the first offer to a row copies it instead of
		// writing into the caller's backing array.
		g.Neighbors[u] = slices.Clip(ns)
	}
	for i, ns := range found {
		v := knng.ID(n0 + i)
		for j := range ns {
			ns[j].New = true
			if !cfg.Optimize {
				u := ns[j].ID
				g.Neighbors[u] = append(g.Neighbors[u], knng.Neighbor{ID: v, Dist: ns[j].Dist, New: true})
			}
		}
		g.Neighbors[v] = ns
	}
	return g, st.DistEvals
}
