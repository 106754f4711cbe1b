package dnnd

import (
	"math/rand"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/dataset"
	"dnnd/internal/metric"
	"dnnd/internal/recall"
)

// TestQuantSearchBigannRecall is the acceptance pin for the quantized
// query path on the bigann-style anchor data (uint8, l2): recall@10
// with EnableQuant must be at least 99% of the exact search's recall
// on the same index and queries.
func TestQuantSearchBigannRecall(t *testing.T) {
	p, err := dataset.ByName("bigann")
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.Generate(p, 2000, 3)
	data := d.U8
	res, err := Build(data, BuildOptions{K: 10, Metric: p.Metric, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	queries := make([][]uint8, 50)
	for i := range queries {
		src := data[rng.Intn(len(data))]
		v := make([]uint8, len(src))
		for j := range v {
			x := int(src[j]) + rng.Intn(11) - 5
			if x < 0 {
				x = 0
			} else if x > 255 {
				x = 255
			}
			v[j] = uint8(x)
		}
		queries[i] = v
	}
	df, err := metric.ForUint8(p.Metric)
	if err != nil {
		t.Fatal(err)
	}
	truth := brute.TruthIDs(brute.QueryKNN(data, queries, 10, df, 0))

	ix, err := NewIndex(res.Graph, data, p.Metric, 10)
	if err != nil {
		t.Fatal(err)
	}
	exactRes, _ := ix.SearchBatch(queries, 10, 0.2, 2)
	exactR := recall.AtK(searchIDs(exactRes), truth, 10)

	if err := ix.EnableQuant(); err != nil {
		t.Fatal(err)
	}
	quantRes, _ := ix.SearchBatch(queries, 10, 0.2, 2)
	quantR := recall.AtK(searchIDs(quantRes), truth, 10)

	t.Logf("bigann recall@10: exact=%.3f quant=%.3f", exactR, quantR)
	if quantR < 0.99*exactR {
		t.Errorf("quantized recall %.3f below 99%% of exact %.3f", quantR, exactR)
	}
}

// TestQuantSearchFloat32Recall covers the lossy (trained) view on
// float32 data with the same 99% acceptance bar.
func TestQuantSearchFloat32Recall(t *testing.T) {
	data := testData(8, 900, 10)
	res, err := Build(data, BuildOptions{K: 10, Metric: "l2", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	queries := make([][]float32, 50)
	for i := range queries {
		src := data[rng.Intn(len(data))]
		v := make([]float32, len(src))
		for j := range v {
			v[j] = src[j] + float32(rng.NormFloat64())*0.1
		}
		queries[i] = v
	}
	truth := brute.TruthIDs(brute.QueryKNN(data, queries, 10, metric.L2Float32, 0))

	ix, err := NewIndex(res.Graph, data, "l2", 10)
	if err != nil {
		t.Fatal(err)
	}
	exactRes, exactEvals := ix.SearchBatch(queries, 10, 0.2, 2)
	exactR := recall.AtK(searchIDs(exactRes), truth, 10)
	if err := ix.EnableQuant(); err != nil {
		t.Fatal(err)
	}
	quantRes, quantEvals := ix.SearchBatch(queries, 10, 0.2, 2)
	quantR := recall.AtK(searchIDs(quantRes), truth, 10)
	t.Logf("float32 recall@10: exact=%.3f quant=%.3f (exact evals %d vs %d)",
		exactR, quantR, exactEvals, quantEvals)
	if quantR < 0.99*exactR {
		t.Errorf("quantized recall %.3f below 99%% of exact %.3f", quantR, exactR)
	}
	if quantEvals >= exactEvals {
		t.Errorf("quantized search did %d exact evals, not fewer than %d", quantEvals, exactEvals)
	}
}

// TestEnableQuantRejectsJaccard: set metrics have no L2 code bound.
func TestEnableQuantRejectsJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([][]uint32, 50)
	for i := range data {
		set := map[uint32]bool{}
		for len(set) < 6 {
			set[uint32(rng.Intn(64))] = true
		}
		row := make([]uint32, 0, len(set))
		for v := range set {
			row = append(row, v)
		}
		data[i] = row
	}
	res, err := Build(data, BuildOptions{K: 5, Metric: "jaccard", Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(res.Graph, data, "jaccard", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableQuant(); err == nil {
		t.Error("EnableQuant accepted a jaccard index")
	}
}

// searchIDs converts SearchBatch output to recall's ID matrix.
func searchIDs(res [][]Neighbor) [][]ID {
	out := make([][]ID, len(res))
	for i, ns := range res {
		ids := make([]ID, len(ns))
		for j, e := range ns {
			ids[j] = e.ID
		}
		out[i] = ids
	}
	return out
}
