package dnnd

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/metric"
	"dnnd/internal/recall"
	"dnnd/internal/search"
)

func testData(seed int64, n, dim int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	// Mildly separated clusters: overlapping tails keep the k-NN graph
	// connected (like real embedding data), which graph search needs.
	centers := make([][]float32, 8)
	for c := range centers {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32() * 3
		}
		centers[c] = v
	}
	data := make([][]float32, n)
	for i := range data {
		c := centers[rng.Intn(len(centers))]
		v := make([]float32, dim)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64())*0.8
		}
		data[i] = v
	}
	return data
}

func TestBuildAndSearch(t *testing.T) {
	data := testData(1, 600, 8)
	res, err := Build(data, BuildOptions{K: 10, Metric: "sql2", Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph == nil || res.Graph.NumVertices() != 600 {
		t.Fatal("no graph built")
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Iters < 1 || res.DistEvals == 0 || res.Messages == 0 {
		t.Errorf("stats not populated: %+v", res)
	}

	ix, err := NewIndex(res.Graph, data, res.Metric, res.K)
	if err != nil {
		t.Fatal(err)
	}
	// Queries: perturbed dataset points (in-distribution, as in the
	// benchmark query sets).
	qrng := rand.New(rand.NewSource(2))
	queries := make([][]float32, 40)
	for i := range queries {
		src := data[qrng.Intn(len(data))]
		v := make([]float32, len(src))
		for j := range v {
			v[j] = src[j] + float32(qrng.NormFloat64())*0.1
		}
		queries[i] = v
	}
	got, evals := ix.SearchBatch(queries, 10, 0.2, 2)
	if evals == 0 {
		t.Error("no distance evals recorded")
	}
	truth := brute.TruthIDs(brute.QueryKNN(data, queries, 10, metric.SquaredL2Float32, 0))
	gotIDs := make([][]ID, len(got))
	for i, ns := range got {
		ids := make([]ID, len(ns))
		for j, e := range ns {
			ids[j] = e.ID
		}
		gotIDs[i] = ids
	}
	r := recall.AtK(gotIDs, truth, 10)
	t.Logf("end-to-end recall@10 = %.3f", r)
	if r < 0.85 {
		t.Errorf("recall = %.3f, want >= 0.85", r)
	}

	// Single-query path.
	single := ix.Search(queries[0], 5, 0.2)
	if len(single) != 5 {
		t.Errorf("Search returned %d results", len(single))
	}
	for i := 1; i < len(single); i++ {
		if single[i-1].Dist > single[i].Dist {
			t.Error("Search results not sorted")
		}
	}
}

// Sequential Index.Search calls run at seeds 2, 3, …: the n-th call
// must equal search.Query at seed n+1, so the seed counter hands out
// the same sequence however it is implemented.
func TestSearchSeedSequence(t *testing.T) {
	data := testData(5, 400, 8)
	g := brute.KNNGraph(data, 8, metric.L2Float32, 0)
	ix, err := NewIndex(g, data, "l2", 8)
	if err != nil {
		t.Fatal(err)
	}
	queries := testData(6, 12, 8)
	for i, q := range queries {
		got := ix.Search(q, 5, 0.1)
		want, _ := search.Query(g, data, ix.Dist(), q, search.Options{L: 5, Epsilon: 0.1}, int64(i+2))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Search call %d diverged from search.Query at seed %d:\ngot  %v\nwant %v", i+1, i+2, got, want)
		}
	}
}

// Concurrent Search calls on one query must use each seed 2 … n+1
// exactly once: the multiset of their answers equals that of
// search.Query over those seeds.
func TestSearchSeedsConcurrent(t *testing.T) {
	// A 2-NN graph falls apart into small components, so which random
	// entry points a seed draws decides the answer (54 distinct answers
	// over the 64 seeds).
	data := testData(7, 400, 8)
	g := brute.KNNGraph(data, 2, metric.L2Float32, 0)
	ix, err := NewIndex(g, data, "l2", 2)
	if err != nil {
		t.Fatal(err)
	}
	q := testData(8, 1, 8)[0]
	const callers, each = 4, 16
	got := make([]string, callers*each)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				got[c*each+i] = fmt.Sprint(ix.Search(q, 10, 0))
			}
		}(c)
	}
	wg.Wait()
	var want []string
	for s := int64(2); s < 2+callers*each; s++ {
		ns, _ := search.Query(g, data, ix.Dist(), q, search.Options{L: 10}, s)
		want = append(want, fmt.Sprint(ns))
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent Search answers are not those of seeds 2..n+1, each used once")
	}
}

func TestBuildValidation(t *testing.T) {
	data := testData(3, 50, 4)
	if _, err := Build(data, BuildOptions{K: 10}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := Build(data, BuildOptions{K: 0, Metric: "l2"}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Build(data, BuildOptions{K: 10, Metric: "jaccard"}); err == nil {
		t.Error("jaccard over float32 accepted")
	}
	if _, err := Build([][]float32{{1}}, BuildOptions{K: 1, Metric: "l2"}); err == nil {
		t.Error("single-point dataset accepted")
	}
}

func TestNewIndexValidation(t *testing.T) {
	data := testData(4, 100, 4)
	res, err := Build(data, BuildOptions{K: 5, Metric: "l2", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndex[float32](nil, data, "l2", 5); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewIndex(res.Graph, data[:50], "l2", 5); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := NewIndex(res.Graph, data, "bogus", 5); err == nil {
		t.Error("bogus metric accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	data := testData(5, 300, 6)
	res, err := Build(data, BuildOptions{K: 8, Metric: "sql2", Ranks: 2, SkipRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := NewIndex(res.Graph, data, res.Metric, res.K)
	dir := filepath.Join(t.TempDir(), "store")
	if err := Save(dir, ix, false); err != nil {
		t.Fatal(err)
	}

	loaded, refined, err := LoadWithMeta[float32](dir)
	if err != nil {
		t.Fatal(err)
	}
	if refined {
		t.Error("store marked refined before Refine")
	}
	if loaded.Len() != 300 || loaded.K() != 8 || loaded.Metric() != "sql2" {
		t.Errorf("loaded meta: len=%d k=%d metric=%s", loaded.Len(), loaded.K(), loaded.Metric())
	}
	if !loaded.Graph().Equal(ix.Graph()) {
		t.Error("graph changed through save/load")
	}

	// Wrong element type must be rejected.
	if _, err := Load[uint8](dir); err == nil {
		t.Error("wrong element type accepted")
	}

	// Refine in place (the separate optimize executable's job).
	if err := Refine[float32](dir, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := Refine[float32](dir, 1.5); err == nil {
		t.Error("double refine accepted")
	}
	refIx, refined, err := LoadWithMeta[float32](dir)
	if err != nil {
		t.Fatal(err)
	}
	if !refined {
		t.Error("refined flag not persisted")
	}
	if refIx.Graph().MaxDegree() > 12 {
		t.Errorf("max degree %d after refine, want <= 12", refIx.Graph().MaxDegree())
	}
	// Refined graph must still answer queries well.
	q := testData(6, 10, 6)
	got := refIx.Search(q[0], 5, 0.2)
	if len(got) != 5 {
		t.Errorf("refined search returned %d", len(got))
	}
}

func TestLoadMissingStore(t *testing.T) {
	if _, err := Load[float32](filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing store accepted")
	}
}

func TestUint8EndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([][]uint8, 200)
	for i := range data {
		v := make([]uint8, 8)
		base := uint8(rng.Intn(6)) * 40
		for j := range v {
			v[j] = base + uint8(rng.Intn(25))
		}
		data[i] = v
	}
	res, err := Build(data, BuildOptions{K: 5, Metric: "l2", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(res.Graph, data, "l2", 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "u8store")
	if err := Save(dir, ix, true); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load[uint8](dir)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Search(data[0], 3, 0.1)
	if len(got) != 3 || got[0].ID != 0 {
		t.Errorf("self query = %v", got)
	}
}

func TestKindsExposed(t *testing.T) {
	if len(Kinds()) != 6 {
		t.Errorf("Kinds() = %v", Kinds())
	}
}

func TestEntryForestSearch(t *testing.T) {
	data := testData(8, 1500, 10)
	res, err := Build(data, BuildOptions{K: 10, Metric: "sql2", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(res.Graph, data, "sql2", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildEntryForest(4); err != nil {
		t.Fatal(err)
	}

	// Self-queries must return the point itself first, and the forest
	// should cut the number of distance evaluations vs random entries.
	queries := data[:50]
	gotForest, evalsForest := ix.SearchBatch(queries, 10, 0.1, 1)
	for qi, ns := range gotForest {
		if ns[0].ID != ID(qi) {
			t.Fatalf("query %d: top hit %d, want self", qi, ns[0].ID)
		}
	}

	ixPlain, _ := NewIndex(res.Graph, data, "sql2", 10)
	_, evalsPlain := ixPlain.SearchBatch(queries, 10, 0.1, 1)
	t.Logf("dist evals: forest=%d plain=%d", evalsForest, evalsPlain)
	if evalsForest >= evalsPlain {
		t.Errorf("forest entries did not reduce distance evals: %d vs %d", evalsForest, evalsPlain)
	}
}

func TestEntryForestRejectsJaccard(t *testing.T) {
	sets := make([][]uint32, 50)
	for i := range sets {
		sets[i] = []uint32{uint32(i), uint32(i + 1), uint32(i + 2)}
	}
	res, err := Build(sets, BuildOptions{K: 3, Metric: "jaccard", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(res.Graph, sets, "jaccard", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildEntryForest(2); err == nil {
		t.Fatal("forest over jaccard sets accepted")
	}
	// Search must still work without a forest.
	if got := ix.Search(sets[5], 3, 0.1); len(got) != 3 {
		t.Errorf("search after rejected forest: %v", got)
	}
}

func TestExtendIncremental(t *testing.T) {
	base := testData(9, 700, 8)
	extra := testData(10, 120, 8)

	prior, err := Build(base, BuildOptions{K: 10, Metric: "sql2", Ranks: 2, SkipRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extend(base, extra, prior.Graph, BuildOptions{K: 10, Metric: "sql2", Ranks: 2, SkipRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumVertices() != 820 {
		t.Fatalf("extended graph has %d vertices", res.Graph.NumVertices())
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}

	combined := append(append([][]float32{}, base...), extra...)
	truth := brute.KNNGraph(combined, 10, metric.SquaredL2Float32, 0)
	r := res.Graph.Recall(truth.TopIDs(10), 10)
	t.Logf("extended graph recall = %.3f (evals %d vs prior build %d)", r, res.DistEvals, prior.DistEvals)
	if r < 0.90 {
		t.Errorf("extended recall = %.3f, want >= 0.90", r)
	}
	// Refinement must be much cheaper than the original build even
	// though it covers more points.
	if res.DistEvals >= prior.DistEvals {
		t.Errorf("extend evals %d not below original build %d", res.DistEvals, prior.DistEvals)
	}

	// New points must be findable.
	ix, err := NewIndex(res.Graph, combined, "sql2", 10)
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Search(extra[5], 3, 0.2)
	if got[0].ID != ID(700+5) {
		t.Errorf("self query for new point = %v", got)
	}
}

func TestExtendValidation(t *testing.T) {
	data := testData(11, 60, 4)
	prior, err := Build(data, BuildOptions{K: 5, Metric: "sql2", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extend(data, nil, prior.Graph, BuildOptions{K: 5, Metric: "sql2"}); err == nil {
		t.Error("empty extra accepted")
	}
	if _, err := Extend(data, data, nil, BuildOptions{K: 5, Metric: "sql2"}); err == nil {
		t.Error("nil prior accepted")
	}
	if _, err := Extend(data[:30], data, prior.Graph, BuildOptions{K: 5, Metric: "sql2"}); err == nil {
		t.Error("mismatched prior accepted")
	}
}

func TestRemoveIncremental(t *testing.T) {
	data := testData(12, 800, 8)
	prior, err := Build(data, BuildOptions{K: 10, Metric: "sql2", Ranks: 2, SkipRefine: true})
	if err != nil {
		t.Fatal(err)
	}

	// Remove every 8th point.
	var ids []ID
	for i := 0; i < len(data); i += 8 {
		ids = append(ids, ID(i))
	}
	kept, res, mapping, err := Remove(data, ids, prior.Graph, BuildOptions{K: 10, Metric: "sql2", Ranks: 2, SkipRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 800-100 {
		t.Fatalf("kept %d points", len(kept))
	}
	if res.Graph.NumVertices() != len(kept) {
		t.Fatalf("graph has %d vertices", res.Graph.NumVertices())
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mapping sanity: removed -> InvalidID, kept -> dense increasing.
	next := ID(0)
	for old, nv := range mapping {
		if old%8 == 0 {
			if nv != ^ID(0) {
				t.Fatalf("removed id %d mapped to %d", old, nv)
			}
			continue
		}
		if nv != next {
			t.Fatalf("id %d mapped to %d, want %d", old, nv, next)
		}
		next++
	}

	// Quality vs a cold rebuild on the kept set.
	truth := brute.KNNGraph(kept, 10, metric.SquaredL2Float32, 0)
	r := res.Graph.Recall(truth.TopIDs(10), 10)
	t.Logf("post-removal recall = %.3f, evals %d (prior build %d)", r, res.DistEvals, prior.DistEvals)
	if r < 0.90 {
		t.Errorf("post-removal recall = %.3f, want >= 0.90", r)
	}
	if res.DistEvals >= prior.DistEvals {
		t.Errorf("removal refinement evals %d not below original build %d", res.DistEvals, prior.DistEvals)
	}
}

func TestRemoveValidation(t *testing.T) {
	data := testData(13, 60, 4)
	prior, err := Build(data, BuildOptions{K: 5, Metric: "sql2", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Remove(data, nil, prior.Graph, BuildOptions{K: 5, Metric: "sql2"}); err == nil {
		t.Error("empty removal accepted")
	}
	if _, _, _, err := Remove(data, []ID{999}, prior.Graph, BuildOptions{K: 5, Metric: "sql2"}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, _, _, err := Remove(data, []ID{1}, nil, BuildOptions{K: 5, Metric: "sql2"}); err == nil {
		t.Error("nil prior accepted")
	}
	all := make([]ID, len(data))
	for i := range all {
		all[i] = ID(i)
	}
	if _, _, _, err := Remove(data, all[:59], prior.Graph, BuildOptions{K: 5, Metric: "sql2"}); err == nil {
		t.Error("removing nearly everything accepted")
	}
}

func TestStoreElem(t *testing.T) {
	data := testData(14, 100, 4)
	res, err := Build(data, BuildOptions{K: 5, Metric: "sql2", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := NewIndex(res.Graph, data, "sql2", 5)
	dir := filepath.Join(t.TempDir(), "s")
	if err := Save(dir, ix, true); err != nil {
		t.Fatal(err)
	}
	elem, err := StoreElem(dir)
	if err != nil || elem != "float32" {
		t.Errorf("StoreElem = %q, %v", elem, err)
	}
	if _, err := StoreElem(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing store accepted")
	}
}

func TestBuildOptionsOverrides(t *testing.T) {
	// Every optional knob must reach the core config.
	o := BuildOptions{
		K: 5, Metric: "l2", Rho: 0.5, Delta: 0.01, MaxIters: 3,
		BatchSize: 1024, Unoptimized: true, SkipRefine: true,
		PruneFactor: 2.0, Seed: 42,
	}
	cfg := o.coreConfig()
	if cfg.Rho != 0.5 || cfg.Delta != 0.01 || cfg.MaxIters != 3 ||
		cfg.BatchSize != 1024 || cfg.Optimize || cfg.PruneFactor != 2.0 || cfg.Seed != 42 {
		t.Errorf("coreConfig = %+v", cfg)
	}
	if cfg.Protocol.OneSided {
		t.Error("Unoptimized did not select the two-sided protocol")
	}
	// Zero-valued options keep the paper defaults.
	d := BuildOptions{K: 5, Metric: "l2"}.coreConfig()
	if d.Rho != 0.8 || d.Delta != 0.001 || !d.Optimize || !d.Protocol.OneSided {
		t.Errorf("defaults = %+v", d)
	}
}
