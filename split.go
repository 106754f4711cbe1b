package dnnd

import (
	"fmt"
	"path/filepath"
	"slices"

	"dnnd/internal/knng"
	"dnnd/internal/shard"
	"dnnd/internal/wire"
)

// ShardDir returns the datastore directory of shard i under a split
// output directory (the layout Split writes and dnnd-router expects).
func ShardDir(outDir string, i int) string {
	return filepath.Join(outDir, fmt.Sprintf("shard%d", i))
}

// ManifestDir returns the shard-manifest datastore directory under a
// split output directory.
func ManifestDir(outDir string) string {
	return filepath.Join(outDir, "manifest")
}

// Split partitions a persisted store into n shard stores plus a shard
// manifest, the offline half of the cluster workflow: each shard gets
// every n-th point (round-robin, so shard sizes differ by at most
// one), its own NN-Descent graph over just its slice, and its own
// datastore at ShardDir(outDir, i); the manifest at ManifestDir(outDir)
// records the local→global ID map a router needs to merge shard
// answers back into global IDs.
//
// A shard's graph is not built cold: each row starts from its
// same-shard one- and two-hop neighbors in the store's own graph (see
// shardPrior), and a short warm NN-Descent refine over the slice
// finishes it, as Refresh does for a mutated store. opt.K and
// opt.Metric default to the source store's own values; the other build
// knobs work exactly as in Build.
//
// Every output store goes through the same metall temp+rename commit
// as any other dnnd store, so a crash mid-split never leaves a
// half-written shard that loads.
func Split[T Scalar](dir, outDir string, n int, opt BuildOptions) (*shard.Manifest, error) {
	if n < 1 {
		return nil, fmt.Errorf("dnnd: split needs at least 1 shard, got %d", n)
	}
	ix, _, err := LoadWithMeta[T](dir)
	if err != nil {
		return nil, err
	}
	if opt.K == 0 {
		opt.K = ix.k
	}
	if opt.Metric == "" {
		opt.Metric = ix.kind
	}
	data := ix.data
	if len(data) < n {
		return nil, fmt.Errorf("dnnd: cannot split %d points into %d shards", len(data), n)
	}

	man := &shard.Manifest{
		Elem:    wire.ElemName[T](),
		Metric:  string(opt.Metric),
		K:       uint32(opt.K),
		Dim:     uint32(len(data[0])),
		N:       uint32(len(data)),
		Refined: !opt.SkipRefine,
	}
	for s := 0; s < n; s++ {
		sub := make([][]T, 0, (len(data)+n-1-s)/n)
		globals := make([]ID, 0, cap(sub))
		for g := s; g < len(data); g += n {
			sub = append(sub, data[g])
			globals = append(globals, ID(g))
		}
		if len(sub) <= opt.K {
			return nil, fmt.Errorf("dnnd: shard %d would hold %d points, need more than k=%d",
				s, len(sub), opt.K)
		}
		prior, err := shardPrior(ix.graph, sub, s, n, opt)
		if err != nil {
			return nil, err
		}
		res, err := runBuild(sub, prior, nil, opt)
		if err != nil {
			return nil, fmt.Errorf("dnnd: building shard %d: %w", s, err)
		}
		shardIx, err := NewIndex(res.Graph, sub, opt.Metric, opt.K)
		if err != nil {
			return nil, err
		}
		if err := Save(ShardDir(outDir, s), shardIx, !opt.SkipRefine); err != nil {
			return nil, fmt.Errorf("dnnd: saving shard %d: %w", s, err)
		}
		man.Shards = append(man.Shards, shard.ShardInfo{
			Count:   uint32(len(sub)),
			Globals: globals,
		})
	}
	if err := shard.SaveManifest(ManifestDir(outDir), man); err != nil {
		return nil, err
	}
	return man, nil
}

// shardPrior derives the warm-start prior of shard s of n from the
// store's graph g. Local row i is global row s+i·n, so a global ID's
// shard is id%n and its local row id/n. A row's candidates are the
// same-shard members of its global list (one hop) and of its global
// neighbors' lists (two hops). They are scored afresh in opt.Metric,
// which need not be the metric g's distances were measured in, and the
// closest opt.K are kept. One-hop entries are flagged old: the global
// descent already checked them against each other. Two-hop entries are
// flagged new, so the refine checks them. A row left with fewer than
// opt.K candidates is topped up at random by the warm loader, as after
// a compaction.
func shardPrior[T Scalar](g *Graph, sub [][]T, s, n int, opt BuildOptions) (*Graph, error) {
	kern, err := kernelFor[T](opt.Metric)
	if err != nil {
		return nil, err
	}
	var (
		seen  knng.VisitSet
		list  = knng.NewNeighborList(opt.K)
		ids   []ID
		cands [][]T
		dists []float32
	)
	add := func(ns []Neighbor) {
		for _, e := range ns {
			if local := e.ID / ID(n); int(e.ID)%n == s && seen.Visit(local) {
				ids = append(ids, local)
				cands = append(cands, sub[local])
			}
		}
	}
	prior := knng.NewGraph(len(sub))
	for i := range sub {
		seen.Begin(len(sub))
		seen.Mark(ID(i))
		ids, cands = ids[:0], cands[:0]
		one := g.Neighbors[s+i*n]
		add(one)
		oneHop := len(ids)
		for _, u := range one {
			add(g.Neighbors[u.ID])
		}
		dists = slices.Grow(dists[:0], len(cands))[:len(cands)]
		kern.EvalMany(sub[i], cands, nil, dists)
		list.Reset(opt.K)
		for j, id := range ids {
			list.Update(id, dists[j], j >= oneHop)
		}
		prior.Neighbors[i] = list.Sorted()
	}
	return prior, nil
}

// SplitStore is the element-type-dispatching form of Split for
// command-line tools that only know the store directory.
func SplitStore(dir, outDir string, n int, opt BuildOptions) (*shard.Manifest, error) {
	elem, err := StoreElem(dir)
	if err != nil {
		return nil, err
	}
	switch elem {
	case "float32":
		return Split[float32](dir, outDir, n, opt)
	case "uint8":
		return Split[uint8](dir, outDir, n, opt)
	case "uint32":
		return Split[uint32](dir, outDir, n, opt)
	default:
		return nil, fmt.Errorf("dnnd: unknown store element type %q", elem)
	}
}
