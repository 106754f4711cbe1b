package metric_test

import (
	"fmt"
	"testing"

	"dnnd/internal/metric"
)

// BenchmarkEvalManyHot scores one query against the same n rows every
// iteration, so the rows stay in L1/L2 and the sweep's arithmetic, not
// memory, sets the time: the single-candidate form (n=1), one
// four-wide sweep (4), one eight-wide sweep (8) and two (16), at deep's
// 96 and gist's 960 dimensions. ns/eval is per candidate.
func BenchmarkEvalManyHot(b *testing.B) {
	kern, err := metric.KernelFor[float32](metric.SquaredL2)
	if err != nil {
		b.Fatal(err)
	}
	for _, dim := range []int{96, 960} {
		qs, cands := benchTileF32(dim)
		for _, n := range []int{1, 4, 8, 16} {
			b.Run(fmt.Sprintf("dim=%d/n=%d", dim, n), func(b *testing.B) {
				q, rows := qs[0], cands[:n]
				out := make([]float32, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kern.EvalMany(q, rows, nil, out)
				}
				b.StopTimer()
				benchSink += out[0]
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(n)*int64(b.N)), "ns/eval")
			})
		}
	}
}
