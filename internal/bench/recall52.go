package bench

import (
	"fmt"

	"dnnd/internal/brute"
	"dnnd/internal/core"
	"dnnd/internal/dataset"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/wire"
)

// RecallRow is one dataset's Section 5.2 graph-quality result.
type RecallRow struct {
	Dataset string
	N       int
	K       int
	Recall  float64
	Iters   int
}

// Sec52Recall reproduces the preliminary quality evaluation of Section
// 5.2: construct a k-NNG with DNND on each of the six small datasets
// and score it against brute-force ground truth. The paper reports
// k=100 recalls of 0.93 (NYTimes), 0.98 (Last.fm) and >= 0.99
// elsewhere; at our scaled N the harness uses k=25 by default (k ~
// sqrt(N) keeps the regime comparable) and the same ordering should
// hold: clustered L2 datasets near-perfect, cosine datasets slightly
// lower.
func Sec52Recall(opt Options) ([]RecallRow, error) {
	opt.fill()
	k := 25
	ranks := 4
	if opt.Quick {
		k = 10
	}

	var rows []RecallRow
	for _, p := range dataset.Small() {
		n := opt.smallN(p)
		d := dataset.Generate(p, n, opt.Seed)
		cfg := core.DefaultConfig(k)
		cfg.Seed = opt.Seed
		cfg.Optimize = false // Section 5.2 scores the raw k-NNG
		out, err := BuildDNND(d, ranks, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", p.Name, err)
		}
		r, err := graphRecall(d, out.Graph, k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RecallRow{
			Dataset: p.Name, N: n, K: k, Recall: r, Iters: out.Result.Iters,
		})
	}

	header(opt.Out, "Section 5.2: k-NNG recall vs brute force (paper: >=0.93 all, >=0.99 most)")
	t := newTable("Dataset", "N", "k", "Graph recall", "NN-Descent rounds")
	for _, r := range rows {
		t.row(r.Dataset, fmt.Sprint(r.N), fmt.Sprint(r.K), f3(r.Recall), fmt.Sprint(r.Iters))
	}
	t.render(opt.Out)
	return rows, nil
}

func graphRecall(d *dataset.Data, g *knng.Graph, k int) (float64, error) {
	switch d.Preset.Elem {
	case dataset.ElemFloat32:
		return graphRecallTyped(d.F32, d.Preset.Metric, g, k)
	case dataset.ElemUint8:
		return graphRecallTyped(d.U8, d.Preset.Metric, g, k)
	default:
		return graphRecallTyped(d.U32, d.Preset.Metric, g, k)
	}
}

func graphRecallTyped[T wire.Scalar](data [][]T, kind metric.Kind, g *knng.Graph, k int) (float64, error) {
	if kind == metric.L2 {
		kind = metric.SquaredL2
	}
	dist, err := metric.For[T](kind)
	if err != nil {
		return 0, err
	}
	truth := brute.KNNGraph(data, k, dist, 0)
	return g.Recall(truth.TopIDs(k), k), nil
}
