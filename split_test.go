package dnnd

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/dataset"
	"dnnd/internal/metall"
	"dnnd/internal/metric"
	"dnnd/internal/recall"
	"dnnd/internal/router"
	"dnnd/internal/wire"
)

// splitRoundTrip pins the shard-manifest contract: splitting a store
// and composing each shard's local→global map over its loaded dataset
// reconstructs the source dataset exactly — the identity every router
// merge silently relies on.
func splitRoundTrip[T Scalar](t *testing.T, data [][]T, kind MetricKind, nShards int) {
	t.Helper()
	const k = 4
	dist, err := metric.For[T](kind)
	if err != nil {
		t.Fatal(err)
	}
	g := brute.KNNGraph(data, k, dist, 0)
	ix, err := NewIndex(g, data, kind, k)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "store")
	if err := Save(src, ix, false); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "cluster")
	man, err := SplitStore(src, out, nShards, BuildOptions{Seed: 1, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if man.Elem != wire.ElemName[T]() || man.Metric != string(kind) ||
		int(man.K) != k || int(man.N) != len(data) || len(man.Shards) != nShards {
		t.Fatalf("manifest shape: %+v", man)
	}

	// The persisted manifest must reload to the same tables.
	loaded, err := router.LoadManifest(ManifestDir(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Shards) != len(man.Shards) {
		t.Fatalf("reloaded manifest has %d shards, want %d", len(loaded.Shards), len(man.Shards))
	}

	// Load every shard store and compose the remap: each local row must
	// be the source row its global ID names, and together the shards
	// must cover every global ID exactly once.
	seen := make([]bool, len(data))
	for s := 0; s < nShards; s++ {
		shardIx, refined, err := LoadWithMeta[T](ShardDir(out, s))
		if err != nil {
			t.Fatalf("loading shard %d: %v", s, err)
		}
		if !refined {
			t.Fatalf("shard %d not refined", s)
		}
		sh := loaded.Shards[s]
		if shardIx.Len() != int(sh.Count) {
			t.Fatalf("shard %d holds %d points, manifest says %d", s, shardIx.Len(), sh.Count)
		}
		if shardIx.K() != k || shardIx.Metric() != kind {
			t.Fatalf("shard %d meta: k=%d metric=%q", s, shardIx.K(), shardIx.Metric())
		}
		// Rows with fewer than k same-shard neighbors in the source
		// graph are topped up by the refine: every row ends with at
		// least min(k, Count-1) distinct in-range neighbors.
		want := min(k, int(sh.Count)-1)
		for i, ns := range shardIx.Graph().Neighbors {
			if len(ns) < want {
				t.Fatalf("shard %d local %d holds %d neighbors, want >= %d", s, i, len(ns), want)
			}
			ids := make(map[ID]bool, len(ns))
			for _, e := range ns {
				if int(e.ID) >= int(sh.Count) || int(e.ID) == i || ids[e.ID] {
					t.Fatalf("shard %d local %d: bad neighbor %d in %v", s, i, e.ID, ns)
				}
				ids[e.ID] = true
			}
		}
		for i, row := range shardIx.Data() {
			glob := sh.Globals[i]
			if seen[glob] {
				t.Fatalf("global ID %d served by two shard slots", glob)
			}
			seen[glob] = true
			want := data[glob]
			if len(row) != len(want) {
				t.Fatalf("shard %d local %d: %d elems, want %d", s, i, len(row), len(want))
			}
			for j := range row {
				if row[j] != want[j] {
					t.Fatalf("shard %d local %d (global %d) elem %d: %v, want %v",
						s, i, glob, j, row[j], want[j])
				}
			}
		}
	}
	for gID, ok := range seen {
		if !ok {
			t.Fatalf("global ID %d is on no shard", gID)
		}
	}
}

func TestSplitRoundTripAllElems(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, dim = 42, 6

	f32 := make([][]float32, n)
	for i := range f32 {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		f32[i] = v
	}
	u8 := make([][]uint8, n)
	for i := range u8 {
		v := make([]uint8, dim)
		for j := range v {
			v[j] = uint8(rng.Intn(256))
		}
		u8[i] = v
	}
	// uint32 rows as fixed-width sorted distinct sets (Jaccard data):
	// the router protocol assumes one dimensionality across the store.
	u32 := make([][]uint32, n)
	for i := range u32 {
		v := make([]uint32, 0, dim)
		x := uint32(rng.Intn(3))
		for len(v) < dim {
			v = append(v, x)
			x += 1 + uint32(rng.Intn(4))
		}
		u32[i] = v
	}

	t.Run("float32", func(t *testing.T) { splitRoundTrip(t, f32, metric.SquaredL2, 3) })
	t.Run("uint8", func(t *testing.T) { splitRoundTrip(t, u8, metric.L2, 3) })
	t.Run("uint32", func(t *testing.T) { splitRoundTrip(t, u32, metric.Jaccard, 2) })
	// 8 shards of 5-6 rows at k 4: most rows find fewer than k
	// same-shard neighbors in the source graph.
	t.Run("float32-8shards", func(t *testing.T) { splitRoundTrip(t, f32, metric.SquaredL2, 8) })
}

// TestSplitShardRecallNearCold pins the seeded shard graphs against
// cold builds of the same slices: recall@k of every shard graph on
// sampled rows stays within 0.02 of a cold Build, and every stored
// edge distance is the shard metric's own. The deep case splits in l2
// a store built in cosine, whose distances are smaller: a prior that
// kept the store's distances would keep them, and fail the distance
// check.
func TestSplitShardRecallNearCold(t *testing.T) {
	const n, nShards, k, samples, margin = 3000, 3, 10, 250, 0.02
	for _, tc := range []struct {
		name, preset string
		store, split MetricKind
	}{
		{"deep-cosine-to-l2", "deep", metric.Cosine, metric.L2},
		{"glove-25", "glove-25", metric.Cosine, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := dataset.ByName(tc.preset)
			if err != nil {
				t.Fatal(err)
			}
			data := dataset.Generate(p, n, 1).F32
			opt := BuildOptions{K: k, Metric: tc.store, Seed: 1}
			global, err := Build(data, opt)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := NewIndex(global.Graph, data, tc.store, k)
			if err != nil {
				t.Fatal(err)
			}
			src := filepath.Join(t.TempDir(), "store")
			if err := Save(src, ix, true); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "cluster")
			opt.Metric = tc.split
			if _, err := Split[float32](src, out, nShards, opt); err != nil {
				t.Fatal(err)
			}
			if opt.Metric == "" {
				opt.Metric = tc.store
			}
			dist, err := metric.ForFloat32(opt.Metric)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(5))
			for s := 0; s < nShards; s++ {
				shardIx, err := Load[float32](ShardDir(out, s))
				if err != nil {
					t.Fatal(err)
				}
				sub := shardIx.Data()
				g := shardIx.Graph()
				for i, ns := range g.Neighbors {
					for _, e := range ns {
						if want := dist(sub[i], sub[e.ID]); e.Dist != want {
							t.Fatalf("shard %d edge %d->%d stores distance %v, %s gives %v",
								s, i, e.ID, e.Dist, opt.Metric, want)
						}
					}
				}
				cold, err := Build(sub, opt)
				if err != nil {
					t.Fatal(err)
				}
				truth := brute.KNNGraph(sub, k, dist, 0).TopIDs(k)
				seeded, coldIDs := g.TopIDs(k), cold.Graph.TopIDs(k)
				var gotS, gotC, want [][]ID
				for _, i := range rng.Perm(len(sub))[:samples] {
					gotS = append(gotS, seeded[i])
					gotC = append(gotC, coldIDs[i])
					want = append(want, truth[i])
				}
				rs, rc := recall.AtK(gotS, want, k), recall.AtK(gotC, want, k)
				t.Logf("shard %d: recall@%d seeded %.4f cold %.4f", s, k, rs, rc)
				if rs < rc-margin {
					t.Errorf("shard %d: seeded recall@%d %.4f more than %.2f below cold %.4f",
						s, k, rs, margin, rc)
				}
			}
		})
	}
}

func TestSplitRejectsBadShapes(t *testing.T) {
	data := [][]float32{{0, 1}, {1, 0}, {1, 1}, {0, 0}, {2, 2}, {3, 3}}
	dist, _ := metric.For[float32](metric.SquaredL2)
	g := brute.KNNGraph(data, 2, dist, 0)
	ix, err := NewIndex(g, data, metric.SquaredL2, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "store")
	if err := Save(src, ix, false); err != nil {
		t.Fatal(err)
	}
	if _, err := Split[float32](src, t.TempDir(), 0, BuildOptions{}); err == nil {
		t.Fatal("0-shard split accepted")
	}
	// 3 shards of 2 points each cannot support k=2 graphs.
	if _, err := Split[float32](src, t.TempDir(), 3, BuildOptions{}); err == nil ||
		!strings.Contains(err.Error(), "need more than k") {
		t.Fatalf("tiny-shard split: %v", err)
	}
	// Wrong element instantiation fails like any other load.
	if _, err := Split[uint8](src, t.TempDir(), 2, BuildOptions{}); err == nil {
		t.Fatal("wrong-elem split accepted")
	}
}

// TestSplitCorruptManifestRejected: a damaged manifest must refuse to
// load — a router silently serving through a broken ID map would
// return wrong neighbors with a straight face.
func TestSplitCorruptManifestRejected(t *testing.T) {
	data := make([][]float32, 12)
	rng := rand.New(rand.NewSource(3))
	for i := range data {
		data[i] = []float32{rng.Float32(), rng.Float32()}
	}
	dist, _ := metric.For[float32](metric.SquaredL2)
	g := brute.KNNGraph(data, 3, dist, 0)
	ix, err := NewIndex(g, data, metric.SquaredL2, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "store")
	if err := Save(src, ix, false); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "cluster")
	if _, err := Split[float32](src, out, 2, BuildOptions{Seed: 1, Ranks: 2}); err != nil {
		t.Fatal(err)
	}

	mdir := ManifestDir(out)
	mgr, err := metall.Open(mdir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := mgr.Get(router.ManifestObject)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff // flip bits inside the last Globals table
	if err := mgr.Put(router.ManifestObject, raw); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := router.LoadManifest(mdir); err == nil {
		t.Fatal("corrupted manifest loaded")
	}
}
