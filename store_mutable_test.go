package dnnd

import (
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/knng"
	"dnnd/internal/metall"
	"dnnd/internal/metric"
	"dnnd/internal/wire"
)

func randRows[T Scalar](rng *rand.Rand, n, dim int) [][]T {
	var z T
	out := make([][]T, n)
	for i := range out {
		v := make([]T, dim)
		switch any(z).(type) {
		case float32:
			for j := range v {
				v[j] = T(any(float32(rng.Float32())).(T))
			}
		case uint8:
			for j := range v {
				v[j] = T(any(uint8(rng.Intn(256))).(T))
			}
		default:
			// Sorted distinct sets for Jaccard.
			x := uint32(rng.Intn(3))
			for j := range v {
				v[j] = T(any(x).(T))
				x += uint32(1 + rng.Intn(5))
			}
		}
		out[i] = v
	}
	return out
}

// mutableRoundTrip persists a v2 manifest (base + delta + tombstones)
// and checks every component and manifest field survives reload.
func mutableRoundTrip[T Scalar](t *testing.T, kind MetricKind) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	const n, dim, k = 40, 6, 4
	data := randRows[T](rng, n, dim)
	delta := randRows[T](rng, 7, dim)
	dist, err := metric.For[T](kind)
	if err != nil {
		t.Fatal(err)
	}
	g := brute.KNNGraph(data, k, dist, 0)
	ix, err := NewIndex(g, data, kind, k)
	if err != nil {
		t.Fatal(err)
	}
	tombs := NewTombstones(n + len(delta))
	tombs.Kill(3)
	tombs.Kill(ID(n + 2)) // a delta point deleted before refinement

	dir := filepath.Join(t.TempDir(), "store")
	if err := SaveMutable(dir, ix, true, delta, tombs, 5); err != nil {
		t.Fatal(err)
	}

	lx, pending, ltombs, st, err := LoadMutable[T](dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != storeVersion || st.Gen != 5 || st.BaseN != n ||
		st.DeltaN != len(delta) || st.TombN != 2 || !st.Refined || st.K != k || st.Metric != kind {
		t.Fatalf("manifest state: %+v", st)
	}
	if lx.Len() != n || len(pending) != len(delta) {
		t.Fatalf("base %d pending %d", lx.Len(), len(pending))
	}
	for i := range delta {
		for j := range delta[i] {
			if pending[i][j] != delta[i][j] {
				t.Fatalf("delta[%d][%d] mismatch", i, j)
			}
		}
	}
	if !ltombs.Dead(3) || !ltombs.Dead(ID(n+2)) || ltombs.Dead(4) || ltombs.Len() != n+len(delta) {
		t.Fatalf("tombstones: len=%d count=%d", ltombs.Len(), ltombs.Count())
	}
	if !lx.Graph().Equal(g) {
		t.Fatal("graph changed across mutable round trip")
	}
}

func TestMutableStoreRoundTripAllElems(t *testing.T) {
	t.Run("float32", func(t *testing.T) { mutableRoundTrip[float32](t, metric.SquaredL2) })
	t.Run("uint8", func(t *testing.T) { mutableRoundTrip[uint8](t, metric.L2) })
	t.Run("uint32", func(t *testing.T) { mutableRoundTrip[uint32](t, metric.Jaccard) })
}

// writeV1Store writes ix in the frozen v1 layout (meta + graph +
// dataset, no generation, delta or tombstones) that earlier builds
// produced, straight through metall: nothing in this build writes v1.
func writeV1Store[T Scalar](t *testing.T, dir string, ix *Index[T], refined bool) {
	t.Helper()
	meta, err := json.Marshal(map[string]any{
		"version": storeVersionV1, "k": ix.k, "metric": ix.kind,
		"elem": wire.ElemName[T](), "n": len(ix.data), "refined": refined,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := metall.OpenOrCreate(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		objMeta: meta, objGraph: ix.graph.Marshal(), objDataset: marshalDataset(ix.data),
	} {
		if err := mgr.Put(name, blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV1StoreOpensForMutation: a frozen v1 store reads back through
// LoadMutable as generation 0 with no pending mutations — stores
// written by earlier builds stay fully usable.
func TestV1StoreOpensForMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randRows[float32](rng, 30, 4)
	g := brute.KNNGraph(data, 3, metric.SquaredL2Float32, 0)
	ix, err := NewIndex(g, data, metric.SquaredL2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	writeV1Store(t, dir, ix, false)
	lx, pending, tombs, st, err := LoadMutable[float32](dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != storeVersionV1 || st.Gen != 0 || st.BaseN != 30 || st.DeltaN != 0 || st.TombN != 0 {
		t.Fatalf("v1 manifest state: %+v", st)
	}
	if len(pending) != 0 || tombs.Count() != 0 || tombs.Len() != 30 {
		t.Fatalf("v1 pending=%d tombs=%d/%d", len(pending), tombs.Count(), tombs.Len())
	}
	if !lx.Graph().Equal(g) {
		t.Fatal("graph changed")
	}
}

// TestSaveWritesV2: Save is SaveMutable at generation 0 with nothing
// pending, so its output reads back as a clean v2 store.
func TestSaveWritesV2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randRows[float32](rng, 30, 4)
	ix, err := NewIndex(brute.KNNGraph(data, 3, metric.SquaredL2Float32, 0), data, metric.SquaredL2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := Save(dir, ix, true); err != nil {
		t.Fatal(err)
	}
	_, pending, tombs, st, err := LoadMutable[float32](dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != storeVersion || st.Gen != 0 || st.BaseN != 30 || st.DeltaN != 0 || st.TombN != 0 || !st.Refined {
		t.Fatalf("Save manifest state: %+v", st)
	}
	if len(pending) != 0 || tombs.Count() != 0 || tombs.Len() != 30 {
		t.Fatalf("Save pending=%d tombs=%d/%d", len(pending), tombs.Count(), tombs.Len())
	}
}

// TestRefineKeepsGeneration: Refine writes its result back at the next
// generation of the store it read, as Compact does, instead of
// restarting the store at generation 0.
func TestRefineKeepsGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := randRows[float32](rng, 60, 4)
	ix, err := NewIndex(brute.KNNGraph(data, 4, metric.SquaredL2Float32, 0), data, metric.SquaredL2, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := SaveMutable(dir, ix, false, nil, nil, 5); err != nil {
		t.Fatal(err)
	}
	if err := Refine[float32](dir, 1.5); err != nil {
		t.Fatal(err)
	}
	_, _, _, st, err := LoadMutable[float32](dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != storeVersion || st.Gen != 6 || !st.Refined {
		t.Fatalf("refined store state: %+v, want version %d gen 6 refined", st, storeVersion)
	}
}

// TestRefineRejectsDirtyStore: Refine reads through the frozen
// contract — a store with pending mutations is refused and untouched.
func TestRefineRejectsDirtyStore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := randRows[float32](rng, 40, 4)
	ix, err := NewIndex(brute.KNNGraph(data, 3, metric.SquaredL2Float32, 0), data, metric.SquaredL2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tombs := NewTombstones(len(data))
	tombs.Kill(7)
	dir := filepath.Join(t.TempDir(), "store")
	if err := SaveMutable(dir, ix, false, nil, tombs, 2); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)
	if err := Refine[float32](dir, 1.5); err == nil || !strings.Contains(err.Error(), "pending mutations") {
		t.Fatalf("Refine of a dirty store: %v", err)
	}
	if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Error("a rejected Refine changed the store's files")
	}
}

// TestFrozenLoadRejectsDirtyMutableStore: LoadWithMeta must refuse a
// v2 store with pending mutations (a frozen reader would resurface
// deleted points) but accept a clean one.
func TestFrozenLoadRejectsDirtyMutableStore(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := randRows[float32](rng, 30, 4)
	g := brute.KNNGraph(data, 3, metric.SquaredL2Float32, 0)
	ix, err := NewIndex(g, data, metric.SquaredL2, 3)
	if err != nil {
		t.Fatal(err)
	}

	clean := filepath.Join(t.TempDir(), "clean")
	if err := SaveMutable(clean, ix, false, nil, nil, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadWithMeta[float32](clean); err != nil {
		t.Fatalf("clean v2 store rejected by frozen load: %v", err)
	}

	dirty := filepath.Join(t.TempDir(), "dirty")
	tombs := NewTombstones(30)
	tombs.Kill(1)
	if err := SaveMutable(dirty, ix, false, nil, tombs, 2); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadWithMeta[float32](dirty)
	if err == nil || !strings.Contains(err.Error(), "pending mutations") {
		t.Fatalf("dirty v2 store accepted by frozen load: %v", err)
	}
}

// TestMutableStoreSurvivesManyGenerations: an online server commits
// every published snapshot back to the same store directory, so the
// open→put→close cycle repeats once per generation. Each generation
// must stay fully readable — this is the store-level regression test
// for the metall sequence-counter bug, where the third commit cycle
// destroyed the live object files.
func TestMutableStoreSurvivesManyGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, dim, k = 40, 6, 4
	dir := filepath.Join(t.TempDir(), "store")
	for gen := int64(1); gen <= 5; gen++ {
		data := randRows[float32](rng, n+int(gen), dim)
		g := brute.KNNGraph(data, k, metric.SquaredL2Float32, 0)
		ix, err := NewIndex(g, data, metric.SquaredL2, k)
		if err != nil {
			t.Fatal(err)
		}
		tombs := NewTombstones(len(data))
		tombs.Kill(ID(gen))
		if err := SaveMutable(dir, ix, true, nil, tombs, gen); err != nil {
			t.Fatalf("gen %d: save: %v", gen, err)
		}
		lx, pending, ltombs, st, err := LoadMutable[float32](dir)
		if err != nil {
			t.Fatalf("gen %d: load: %v", gen, err)
		}
		if st.Gen != gen || lx.Len() != len(data) || len(pending) != 0 {
			t.Fatalf("gen %d: state %+v, n=%d pending=%d", gen, st, lx.Len(), len(pending))
		}
		if !ltombs.Dead(ID(gen)) || ltombs.Count() != 1 {
			t.Fatalf("gen %d: tombstones count=%d", gen, ltombs.Count())
		}
		if !lx.Graph().Equal(g) {
			t.Fatalf("gen %d: graph changed across commit", gen)
		}
	}
}

// TestCompactFoldsDeltaAndTombstones: compaction folds the delta into
// the base, removes dead points, bumps the generation, and leaves a
// clean store a frozen loader accepts.
func TestCompactFoldsDeltaAndTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n, dim, k = 120, 6, 6
	data := randRows[float32](rng, n, dim)
	delta := randRows[float32](rng, 12, dim)
	g := brute.KNNGraph(data, k, metric.SquaredL2Float32, 0)
	ix, err := NewIndex(g, data, metric.SquaredL2, k)
	if err != nil {
		t.Fatal(err)
	}
	tombs := NewTombstones(n + len(delta))
	tombs.Kill(10)
	tombs.Kill(11)

	dir := filepath.Join(t.TempDir(), "store")
	if err := SaveMutable(dir, ix, false, delta, tombs, 3); err != nil {
		t.Fatal(err)
	}
	mapping, err := Compact[float32](dir, BuildOptions{Metric: metric.SquaredL2, Ranks: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(mapping) != n+len(delta) {
		t.Fatalf("mapping covers %d IDs, want %d", len(mapping), n+len(delta))
	}
	if mapping[10] != knng.InvalidID || mapping[11] != knng.InvalidID || mapping[0] == knng.InvalidID {
		t.Fatalf("mapping: %v %v %v", mapping[10], mapping[11], mapping[0])
	}

	lx, pending, ltombs, st, err := LoadMutable[float32](dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Gen != 4 || st.DeltaN != 0 || st.TombN != 0 {
		t.Fatalf("post-compact state: %+v", st)
	}
	if lx.Len() != n+len(delta)-2 || len(pending) != 0 || ltombs.Count() != 0 {
		t.Fatalf("post-compact: n=%d pending=%d tombs=%d", lx.Len(), len(pending), ltombs.Count())
	}
	// Frozen loaders accept the compacted store again.
	if _, _, err := LoadWithMeta[float32](dir); err != nil {
		t.Fatalf("frozen load of compacted store: %v", err)
	}
	// Compacting a clean store is a typed no-op error.
	if _, err := Compact[float32](dir, BuildOptions{Metric: metric.SquaredL2, Ranks: 1}); err == nil {
		t.Fatal("compact of clean store did not report nothing-to-do")
	}
}

// TestCompactSeedsLikeExtend: Compact hands the build the stored graph
// unpadded, so its delta rows start from a search of it. Without
// tombstones the compacted graph is Extend's, neighbor for neighbor;
// with them it is Remove's over the same unpadded prior.
func TestCompactSeedsLikeExtend(t *testing.T) {
	const n, dim, k = 300, 8, 8
	opt := BuildOptions{K: k, Metric: metric.SquaredL2, Ranks: 1, Seed: 1}
	rng := rand.New(rand.NewSource(14))
	data := randRows[float32](rng, n, dim)
	delta := randRows[float32](rng, 40, dim)
	combined := append(append([][]float32(nil), data...), delta...)
	built, err := Build(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(built.Graph, data, opt.Metric, k)
	if err != nil {
		t.Fatal(err)
	}
	compacted := func(t *testing.T, dead []ID) *Graph {
		t.Helper()
		tombs := NewTombstones(len(combined))
		for _, id := range dead {
			tombs.Kill(id)
		}
		dir := filepath.Join(t.TempDir(), "store")
		if err := SaveMutable(dir, ix, true, delta, tombs, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := Compact[float32](dir, opt); err != nil {
			t.Fatal(err)
		}
		lx, _, _, _, err := LoadMutable[float32](dir)
		if err != nil {
			t.Fatal(err)
		}
		return lx.Graph()
	}
	same := func(t *testing.T, got, want *Graph) {
		t.Helper()
		if got.NumVertices() != want.NumVertices() {
			t.Fatalf("compacted graph has %d vertices, want %d", got.NumVertices(), want.NumVertices())
		}
		for v := range want.Neighbors {
			g, w := got.Neighbors[v], want.Neighbors[v]
			if len(g) != len(w) {
				t.Fatalf("vertex %d: %d neighbors, want %d", v, len(g), len(w))
			}
			for j := range w {
				if g[j].ID != w[j].ID || g[j].Dist != w[j].Dist {
					t.Fatalf("vertex %d rank %d: %d@%v, want %d@%v", v, j, g[j].ID, g[j].Dist, w[j].ID, w[j].Dist)
				}
			}
		}
	}

	t.Run("pending", func(t *testing.T) {
		want, err := Extend(data, delta, built.Graph, opt)
		if err != nil {
			t.Fatal(err)
		}
		same(t, compacted(t, nil), want.Graph)
	})
	t.Run("tombstones", func(t *testing.T) {
		dead := []ID{4, 90, 91, n + 3}
		_, want, _, err := Remove(combined, dead, built.Graph, opt)
		if err != nil {
			t.Fatal(err)
		}
		same(t, compacted(t, dead), want.Graph)
	})
}

// TestSaveMutableUnderConcurrentDeletes: SaveMutable freezes the
// tombstone set once and derives both the persisted TombN and the
// bitset blob from that single copy, so a save racing concurrent Kill
// calls (the server's persist-on-publish path, where deletes keep
// landing on the published snapshot's live set) always writes a
// self-consistent store that LoadMutable reopens.
func TestSaveMutableUnderConcurrentDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, dim, k = 2000, 4, 3
	const gens, killsPerGen = 15, 100
	data := randRows[float32](rng, n, dim)
	g := brute.KNNGraph(data, k, metric.SquaredL2Float32, 0)
	ix, err := NewIndex(g, data, metric.SquaredL2, k)
	if err != nil {
		t.Fatal(err)
	}
	tombs := NewTombstones(n)

	dir := filepath.Join(t.TempDir(), "store")
	for gen := int64(1); gen <= gens; gen++ {
		// Kill a fresh batch of IDs concurrently with the save; each
		// iteration races real mutations against the snapshot freeze.
		start := make(chan struct{})
		done := make(chan struct{})
		base := int(gen-1) * killsPerGen
		go func() {
			defer close(done)
			<-start
			for i := 0; i < killsPerGen; i++ {
				tombs.Kill(ID(base + i))
			}
		}()
		close(start)
		if err := SaveMutable(dir, ix, true, nil, tombs, gen); err != nil {
			t.Fatalf("gen %d: save: %v", gen, err)
		}
		<-done
		// The persisted count and bitset must agree no matter how the
		// race landed — LoadMutable rejects the store otherwise.
		if _, _, ltombs, st, err := LoadMutable[float32](dir); err != nil {
			t.Fatalf("gen %d: load: %v", gen, err)
		} else if st.Gen != gen || ltombs.Count() != st.TombN {
			t.Fatalf("gen %d: state %+v, tombs=%d", gen, st, ltombs.Count())
		}
	}
	if tombs.Count() != gens*killsPerGen {
		t.Fatalf("killer lost kills: %d", tombs.Count())
	}
}
