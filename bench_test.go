// Benchmarks: one per table and figure of the paper's evaluation
// (Section 5) plus the design-choice ablations — the entry points that
// regenerate each artifact. They run the harness in quick mode so
// `go test -bench=.` finishes on a laptop; pass -bench with -benchtime
// 1x and use cmd/dnnd-bench for full-scale runs (see EXPERIMENTS.md).
package dnnd_test

import (
	"io"
	"testing"

	"dnnd/internal/bench"
)

func quickOpts() bench.Options {
	return bench.Options{Out: io.Discard, Seed: 1, Quick: true}
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset inventory).
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec52GraphRecall regenerates the Section 5.2 preliminary
// graph-quality evaluation (DNND vs brute force on the six small
// datasets).
func BenchmarkSec52GraphRecall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Sec52Recall(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		mean := 0.0
		for _, r := range rows {
			mean += r.Recall
		}
		b.ReportMetric(mean/float64(len(rows)), "mean-recall")
	}
}

// BenchmarkTable2HnswSurvey regenerates the Hnswlib parameter survey
// behind Table 2.
func BenchmarkTable2HnswSurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Table2HnswSurvey(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DNNDRecallK10["deep"], "dnnd-k10-recall")
	}
}

// BenchmarkFig2QualityTradeoff regenerates Figure 2 (recall@10 vs
// query throughput for DNND and HNSW).
func BenchmarkFig2QualityTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.Fig2QualityTradeoff(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, s := range series {
			for _, p := range s.Points {
				if p.Recall > best {
					best = p.Recall
				}
			}
		}
		b.ReportMetric(best, "best-recall")
	}
}

// BenchmarkFig3Construction regenerates Figure 3 / Table 3
// (construction vs node count, from measured counters) and reports the
// imbalance of bytes sent per rank at the largest rank count.
func BenchmarkFig3Construction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig3Construction(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		var widest bench.Fig3Row
		for _, r := range rows {
			if r.PerRank != nil && r.Ranks > widest.Ranks {
				widest = r
			}
		}
		maxBytes, meanBytes := widest.RankBytes()
		b.ReportMetric(float64(maxBytes)/meanBytes, "max/mean-rank-bytes")
	}
}

// BenchmarkFig4CommSaving regenerates Figure 4 (neighbor-check message
// counts and volumes, optimized vs unoptimized).
func BenchmarkFig4CommSaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig4CommSaving(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Protocol == "optimized" && r.Dataset == "deep" {
				b.ReportMetric(r.ByteRatio, "deep-byte-ratio")
			}
		}
	}
}

// BenchmarkBatchSizeAblation measures the Section 4.4 batching
// trade-off.
func BenchmarkBatchSizeAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.BatchSizeAblation(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphOptAblation measures the Section 4.5 graph
// optimization's effect on query quality.
func BenchmarkGraphOptAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.GraphOptAblation(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommSavingAblation toggles the three Section 4.3 techniques
// individually.
func BenchmarkCommSavingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.CommSavingAblation(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntryPointAblation compares random vs rp-tree search entry
// points (the PyNNDescent technique, paper Section 6).
func BenchmarkEntryPointAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.EntryPointAblation(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[len(rows)-1].DistEvals), "rptree-evals/query")
	}
}

// BenchmarkIncrementalUpdate measures the Section 7 warm-started
// refinement against a cold rebuild.
func BenchmarkIncrementalUpdate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.IncrementalAblation(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		ratio := float64(rows[2].DistEvals) / float64(rows[1].DistEvals)
		b.ReportMetric(ratio, "warm/cold-evals")
	}
}
