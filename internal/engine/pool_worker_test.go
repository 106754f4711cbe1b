package engine

import (
	"sync/atomic"
	"testing"
)

// ParallelForWorker must cover every item exactly once, hand out only
// worker indices in [0, Workers), and never run two items with the
// same index concurrently (each index is claimed by one goroutine).
func TestParallelForWorkerCoverageAndIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(PoolConfig[float32]{
			Workers: workers,
			Dim:     4,
			Eval:    func([]float32, [][]float32, []float32, []float32) {},
			Apply:   func(*Task[float32]) {},
		})
		const n = 1000
		var hits [n]atomic.Int32
		var active [8]atomic.Int32 // per-worker concurrent-entry counter
		p.ParallelForWorker(n, func(w, i int) {
			if w < 0 || w >= workers {
				t.Errorf("worker index %d out of range [0,%d)", w, workers)
			}
			if active[w].Add(1) != 1 {
				t.Errorf("worker index %d entered concurrently", w)
			}
			hits[i].Add(1)
			active[w].Add(-1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
		p.Shutdown()
	}
}
