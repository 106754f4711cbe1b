package dnnd

import (
	"fmt"
	"path/filepath"

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
// one), its own NN-Descent graph built and refined over just its
// slice, and its own datastore at ShardDir(outDir, i); the manifest at
// ManifestDir(outDir) records the local→global ID map a router needs
// to merge shard answers back into global IDs. opt.K and opt.Metric
// default to the source store's own values; the other build knobs work
// exactly as in Build.
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
		res, err := Build(sub, opt)
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
