package bench

import (
	"fmt"

	"dnnd/internal/dataset"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/recall"
	"dnnd/internal/rptree"
	"dnnd/internal/search"
)

// EntryRow compares search entry strategies at one epsilon.
type EntryRow struct {
	Strategy  string
	Epsilon   float64
	Recall    float64
	DistEvals int64 // per query
}

// EntryPointAblation compares random search entry points against
// rp-tree-forest entry points (the PyNNDescent technique the paper
// cites in Section 6) on the deep stand-in: same graph, same queries,
// recall and per-query distance evaluations.
func EntryPointAblation(opt Options) ([]EntryRow, error) {
	opt.fill()
	const k = 10
	epsList := []float64{0, 0.1, 0.2}
	if opt.Quick {
		epsList = []float64{0.1}
	}
	p, err := dataset.ByName("deep")
	if err != nil {
		return nil, err
	}
	d := dataset.Generate(p, opt.billionN(), opt.Seed)
	queries := dataset.GenerateQueries(p, opt.queryN(), opt.Seed)
	truth, err := GroundTruth(d, queries, k)
	if err != nil {
		return nil, err
	}
	cfg := opt.coreConfig(k)
	cfg.Seed = opt.Seed
	out, err := BuildDNND(d, 4, cfg)
	if err != nil {
		return nil, err
	}
	forest := rptree.NewForest(d.F32, 4, opt.Seed)
	dist, err := metric.For[float32](metric.SquaredL2)
	if err != nil {
		return nil, err
	}

	var rows []EntryRow
	for _, eps := range epsList {
		for _, strategy := range []string{"random", "rp-tree"} {
			o := search.Options{L: k, Epsilon: eps, Seed: 7}
			if strategy == "rp-tree" {
				o.EntriesFunc = func(qi int) []knng.ID {
					return forest.Candidates(queries.F32[qi], 2*k)
				}
			}
			res, st := search.Batch(out.Graph, d.F32, dist, queries.F32, o, 1)
			rows = append(rows, EntryRow{
				Strategy:  strategy,
				Epsilon:   eps,
				Recall:    recall.AtK(search.IDs(res), truth, k),
				DistEvals: st.DistEvals / int64(len(queries.F32)),
			})
		}
	}

	header(opt.Out, "Ablation (Sec 6 / PyNNDescent): random vs rp-tree search entry points")
	t := newTable("Strategy", "epsilon", "recall@10", "dist evals / query")
	for _, r := range rows {
		t.row(r.Strategy, f2(r.Epsilon), f3(r.Recall), fmt.Sprint(r.DistEvals))
	}
	t.render(opt.Out)
	return rows, nil
}

// IncrementalRow compares cold rebuilds against warm-started
// refinement.
type IncrementalRow struct {
	Mode      string
	N         int
	DistEvals int64
	Recall    float64
	Iters     int
}

// IncrementalAblation measures the Section 7 incremental-update
// workflow: grow the deep stand-in by 10% and compare a warm-started
// refinement (prior lists kept, appended rows seeded by a search of the
// prior graph, as Extend and Refresh do) against a cold rebuild, in
// distance evaluations (the seeding search included) and final graph
// recall.
func IncrementalAblation(opt Options) ([]IncrementalRow, error) {
	opt.fill()
	const k = 10
	p, err := dataset.ByName("deep")
	if err != nil {
		return nil, err
	}
	total := opt.billionN()
	baseN := total * 9 / 10
	full := dataset.Generate(p, total, opt.Seed)

	cfg := opt.coreConfig(k)
	cfg.Seed = opt.Seed
	cfg.Optimize = false

	baseData := &dataset.Data{Preset: p, F32: full.F32[:baseN]}
	prior, err := BuildDNND(baseData, 4, cfg)
	if err != nil {
		return nil, err
	}

	cold, err := BuildDNND(full, 4, cfg)
	if err != nil {
		return nil, err
	}
	// The warm start Extend and Refresh run: appended rows seeded by a
	// search of the prior graph, its evaluations counted in the
	// refinement's.
	warm, err := buildTyped(full.F32, p.Metric, 4, cfg, prior.Graph)
	if err != nil {
		return nil, err
	}

	coldRecall, err := graphRecall(full, cold.Graph, k)
	if err != nil {
		return nil, err
	}
	warmRecall, err := graphRecall(full, warm.Graph, k)
	if err != nil {
		return nil, err
	}

	rows := []IncrementalRow{
		{Mode: "base build (90%)", N: baseN, DistEvals: prior.Result.DistEvals, Iters: prior.Result.Iters},
		{Mode: "cold rebuild (100%)", N: total, DistEvals: cold.Result.DistEvals, Recall: coldRecall, Iters: cold.Result.Iters},
		{Mode: "warm refinement (+10%)", N: total, DistEvals: warm.Result.DistEvals, Recall: warmRecall, Iters: warm.Result.Iters},
	}

	header(opt.Out, "Ablation (Sec 7): incremental update via warm-started refinement")
	t := newTable("Mode", "N", "Dist evals", "Graph recall", "Rounds")
	for _, r := range rows {
		rec := "-"
		if r.Recall > 0 {
			rec = f3(r.Recall)
		}
		t.row(r.Mode, fmt.Sprint(r.N), fmt.Sprint(r.DistEvals), rec, fmt.Sprint(r.Iters))
	}
	t.render(opt.Out)
	return rows, nil
}
