package bench

import (
	"fmt"

	"dnnd/internal/core"
	"dnnd/internal/dataset"
)

// Fig2Series is one curve of Figure 2: an index configuration with its
// recall/QPS trade-off samples.
type Fig2Series struct {
	Dataset string
	Label   string // "DNND k10", "Hnsw A", ...
	Points  []TradeoffPoint
}

// Fig2QualityTradeoff reproduces Figure 2: recall@10 vs query
// throughput on the two billion-scale stand-ins, comparing DNND graphs
// (k = 10, 20, 30; epsilon sweep) against the paper's Table 2 Hnswlib
// configurations (ef sweep). The expected shape: DNND k20 curves meet
// the best HNSW curves, DNND k30 exceeds them.
func Fig2QualityTradeoff(opt Options) ([]Fig2Series, error) {
	opt.fill()
	ks := []int{10, 20, 30}
	epsSweep := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}
	efSweep := []int{20, 40, 80, 160, 320, 640, 1200}
	hnswCfgs := map[string][]struct {
		label  string
		m, efc int
	}{
		// Table 2 of the paper.
		"deep":   {{"Hnsw A", 64, 50}, {"Hnsw B", 64, 200}},
		"bigann": {{"Hnsw C", 32, 25}, {"Hnsw D", 64, 200}},
	}
	if opt.Quick {
		ks = []int{5, 10}
		epsSweep = []float64{0, 0.2}
		efSweep = []int{20, 100}
		hnswCfgs = map[string][]struct {
			label  string
			m, efc int
		}{
			"deep":   {{"Hnsw A", 8, 25}},
			"bigann": {{"Hnsw C", 8, 25}},
		}
	}

	const recallK = 10
	var series []Fig2Series
	for _, name := range []string{"deep", "bigann"} {
		p, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		d := dataset.Generate(p, opt.billionN(), opt.Seed)
		queries := dataset.GenerateQueries(p, opt.queryN(), opt.Seed)
		truth, err := GroundTruth(d, queries, recallK)
		if err != nil {
			return nil, err
		}

		for _, k := range ks {
			cfg := core.DefaultConfig(k)
			cfg.Seed = opt.Seed
			out, err := BuildDNND(d, 4, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: dnnd k=%d on %s: %w", k, name, err)
			}
			pts, err := QueryCurveDNND(d, out.Graph, truth, queries, recallK, epsSweep)
			if err != nil {
				return nil, err
			}
			series = append(series, Fig2Series{
				Dataset: name, Label: fmt.Sprintf("DNND k%d", k), Points: pts,
			})
		}

		for _, hc := range hnswCfgs[name] {
			run, err := RunHNSW(d, queries, truth, recallK, hc.m, hc.efc, efSweep, opt.Seed)
			if err != nil {
				return nil, fmt.Errorf("bench: hnsw %s on %s: %w", hc.label, name, err)
			}
			series = append(series, Fig2Series{Dataset: name, Label: hc.label, Points: run.Curve})
		}
	}

	header(opt.Out, "Figure 2: recall@10 vs query throughput (qps)")
	for _, name := range []string{"deep", "bigann"} {
		plot := asciiPlot{
			Title:  fmt.Sprintf("Figure 2 (%s): recall@10 (x) vs qps (y, log)", name),
			XLabel: "recall@10", YLabel: "qps", LogY: true,
		}
		for _, s := range series {
			if s.Dataset != name {
				continue
			}
			ps := plotSeries{Label: s.Label}
			for _, pt := range s.Points {
				ps.Points = append(ps.Points, [2]float64{pt.Recall, pt.QPS})
			}
			plot.Series = append(plot.Series, ps)
		}
		plot.render(opt.Out)
	}
	for _, s := range series {
		fmt.Fprintf(opt.Out, "\n### %s — %s\n\n", s.Dataset, s.Label)
		t := newTable("param (eps|ef)", "recall@10", "QPS", "dist evals")
		for _, pt := range s.Points {
			t.row(f2(pt.Param), f3(pt.Recall), f2(pt.QPS), fmt.Sprint(pt.DistEvals))
		}
		t.render(opt.Out)
	}
	return series, nil
}
