package dnnd

import (
	"math/rand"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/dataset"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/recall"
)

// TestRefreshKeepsIDsStable: Refresh stitches appended points in and
// repairs around tombstones without compacting IDs — dead vertices
// keep prior lists, live lists never contain dead IDs.
func TestRefreshKeepsIDsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, extra, dim = 400, 40, 8
	data := make([][]float32, n+extra)
	for i := range data {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32() * 10
		}
		data[i] = v
	}
	opt := BuildOptions{K: 8, Metric: metric.SquaredL2, Ranks: 2, Seed: 1}
	base, err := Build(data[:n], opt)
	if err != nil {
		t.Fatal(err)
	}
	tombs := NewTombstones(n + extra)
	for i := 0; i < 20; i++ {
		tombs.Kill(ID(i * 7))
	}
	res, err := Refresh(data, base.Graph, tombs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumVertices() != n+extra {
		t.Fatalf("refreshed graph covers %d vertices, want %d", res.Graph.NumVertices(), n+extra)
	}
	for v := 0; v < res.Graph.NumVertices(); v++ {
		if tombs.Dead(ID(v)) {
			continue
		}
		if len(res.Graph.Neighbors[v]) == 0 {
			t.Fatalf("live vertex %d has no neighbors", v)
		}
		for _, e := range res.Graph.Neighbors[v] {
			if tombs.Dead(e.ID) {
				t.Fatalf("live vertex %d kept dead neighbor %d", v, e.ID)
			}
		}
	}
	if res.DistEvals >= base.DistEvals {
		t.Errorf("refresh evals %d not below base build's %d", res.DistEvals, base.DistEvals)
	}
}

// TestRefreshRecallAtLeastCold is the mutable-index acceptance gate:
// ingesting a +10% delta and refreshing the prior graph must (a) search
// at least as well as a cold rebuild over the combined dataset and
// (b) cost at most 0.3x the cold rebuild's distance evaluations —
// otherwise the online path would be pointless and a full rebuild
// always preferable.
func TestRefreshRecallAtLeastCold(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n, extra, dim, k, nq = 1000, 100, 12, 10, 80
	all := make([][]float32, n+extra)
	for i := range all {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32() * 10
		}
		all[i] = v
	}
	queries := make([][]float32, nq)
	for i := range queries {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32() * 10
		}
		queries[i] = v
	}
	opt := BuildOptions{K: k, Metric: metric.SquaredL2, Ranks: 1, Seed: 5}

	cold, err := Build(all, opt)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(all[:n], opt)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := Refresh(all, base.Graph, NewTombstones(n+extra), opt)
	if err != nil {
		t.Fatal(err)
	}

	dist, err := metric.ForFloat32(metric.SquaredL2)
	if err != nil {
		t.Fatal(err)
	}
	truth := brute.TruthIDs(brute.QueryKNN(all, queries, k, dist, 0))
	recall := func(g *Graph) float64 {
		ix, err := NewIndex(g, all, metric.SquaredL2, k)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := ix.SearchBatch(queries, k, 0.3, 2)
		hits := 0
		for qi, want := range truth {
			got := make(map[knng.ID]bool, len(res[qi]))
			for _, nb := range res[qi] {
				got[nb.ID] = true
			}
			for _, id := range want {
				if got[id] {
					hits++
				}
			}
		}
		return float64(hits) / float64(nq*k)
	}

	coldR, incrR := recall(cold.Graph), recall(incr.Graph)
	t.Logf("recall@%d: cold=%.4f incremental=%.4f; evals: cold=%d incremental=%d (%.2fx)",
		k, coldR, incrR, cold.DistEvals, incr.DistEvals,
		float64(incr.DistEvals)/float64(cold.DistEvals))
	if coldR < 0.80 {
		t.Fatalf("cold-rebuild recall %.4f implausibly low; test setup broken", coldR)
	}
	if incrR < coldR {
		t.Errorf("incremental recall %.4f below cold rebuild's %.4f", incrR, coldR)
	}
	if got, cap := incr.DistEvals, cold.DistEvals*3/10; got > cap {
		t.Errorf("+10%% delta refresh cost %d evals, above the 0.3x cold-rebuild cap %d", got, cap)
	}
}

// deepDelta is the mutable index's refresh scenario on the deep preset:
// a graph built over n rows, the dataset grown by 10 % appended rows,
// and 2 % of the base rows tombstoned.
func deepDelta(t *testing.T, n int, opt BuildOptions) (data [][]float32, base *BuildResult, tombs *Tombstones) {
	t.Helper()
	p, err := dataset.ByName("deep")
	if err != nil {
		t.Fatal(err)
	}
	data = dataset.Generate(p, n+n/10, 3).F32
	if base, err = Build(data[:n], opt); err != nil {
		t.Fatal(err)
	}
	tombs = NewTombstones(len(data))
	for _, v := range rand.New(rand.NewSource(3)).Perm(n)[:n/50] {
		tombs.Kill(ID(v))
	}
	return data, base, tombs
}

// TestRefreshSeedsAppendedRows: appended rows start from a search of
// the prior graph, so Refresh finds their neighborhoods better than
// from random partners and converges in fewer rounds than a cold build
// of the same data.
func TestRefreshSeedsAppendedRows(t *testing.T) {
	const n, k = 2000, 10
	opt := BuildOptions{K: k, Metric: metric.L2, Ranks: 1, Seed: 1}
	data, base, tombs := deepDelta(t, n, opt)
	res, err := Refresh(data, base.Graph, tombs, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Build(data, opt)
	if err != nil {
		t.Fatal(err)
	}

	var live [][]float32
	var liveIDs []ID
	for v, row := range data {
		if !tombs.Dead(ID(v)) {
			live = append(live, row)
			liveIDs = append(liveIDs, ID(v))
		}
	}
	dist, err := metric.ForFloat32(metric.SquaredL2)
	if err != nil {
		t.Fatal(err)
	}
	// A row is its own nearest point: ask for one more and drop it.
	truth := brute.TruthIDs(brute.QueryKNN(live, data[n:], k+1, dist, 0))
	got := make([][]ID, len(truth))
	for i, want := range truth {
		v := ID(n + i)
		ids := make([]ID, 0, k)
		for _, j := range want {
			if liveIDs[j] != v && len(ids) < k {
				ids = append(ids, liveIDs[j])
			}
		}
		truth[i] = ids
		for _, e := range res.Graph.Neighbors[v] {
			got[i] = append(got[i], e.ID)
		}
	}
	rr := recall.AtK(got, truth, k)
	t.Logf("appended-row recall %.4f; rounds: refresh %d, cold build %d", rr, res.Iters, cold.Iters)
	if rr < 0.95 {
		t.Errorf("appended-row recall %.4f, want >= 0.95", rr)
	}
	if res.Iters >= cold.Iters {
		t.Errorf("refresh took %d rounds, cold build %d; want fewer", res.Iters, cold.Iters)
	}
}

// TestRefreshWorkerWidthDeterministic: the seeding search spreads its
// queries over the cores through a claim cursor, ahead of the worker
// ring; neither may make a refresh depend on the worker width.
func TestRefreshWorkerWidthDeterministic(t *testing.T) {
	opt := BuildOptions{K: 10, Metric: metric.L2, Ranks: 1, Seed: 1}
	data, base, tombs := deepDelta(t, 1500, opt)
	var ref *BuildResult
	for _, workers := range []int{1, 2, 3} {
		opt.Workers = workers
		res, err := Refresh(data, base.Graph, tombs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !res.Graph.Equal(ref.Graph) {
			t.Fatalf("workers=%d: refreshed graph differs from workers=1", workers)
		}
		if res.DistEvals != ref.DistEvals {
			t.Fatalf("workers=%d: DistEvals %d, workers=1 %d", workers, res.DistEvals, ref.DistEvals)
		}
	}
}
