package dnnd

import (
	"math/rand"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/dataset"
	"dnnd/internal/metric"
	"dnnd/internal/recall"
)

// TestSearchBigannRecall pins exact search on the bigann-style anchor
// data (uint8, l2) at a realistic scale: recall@10 of 50 noisy
// queries at l=10, epsilon=0.2 over a 2 000-row index. It read 1.000
// before the quantized query path was deleted; the bound leaves 0.02
// of slack.
func TestSearchBigannRecall(t *testing.T) {
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
	got, _ := ix.SearchBatch(queries, 10, 0.2, 2)
	r := recall.AtK(searchIDs(got), truth, 10)
	t.Logf("bigann recall@10: %.3f", r)
	if r < 0.98 {
		t.Errorf("recall@10 %.3f below 0.98", r)
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
