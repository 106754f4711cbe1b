package core

import (
	"runtime"

	"dnnd/internal/engine"
	"dnnd/internal/wire"
)

// The intra-rank worker pool itself lives in internal/engine (Pool);
// this file binds it to the builder: the construction's task kinds,
// the ring knobs tests shrink to hammer the drain paths, and the
// worker-width default.

// Overridable knobs (tests shrink them to hammer the ring). They are
// part of the apply-point schedule, so two runs only compare equal when
// built with the same values.
var (
	taskRingSize  = engine.DefaultRingSize
	taskBatchSize = engine.DefaultBatchSize
)

// resolveWorkers applies the Config.Workers default: explicit values
// win; 0 means one worker per core after giving every co-located rank
// its share, clamped to at least the serial pool.
func resolveWorkers(configured, nranks int) int {
	if configured > 0 {
		return configured
	}
	w := runtime.GOMAXPROCS(0) / nranks
	if w < 1 {
		w = 1
	}
	return w
}

// The construction's task kinds (engine.Task.Kind values).
const (
	taskInitReq  uint8 = iota // compute: init distance request
	taskInitResp              // apply-only: init distance return
	taskType1                 // apply-only: forward decision + Type 2 send
	taskType2                 // compute: theta(u1,u2) + update + Type 3 decision
	taskType3                 // apply-only: fold returned distance
)

// newWorkpool builds the engine pool for b: distance batches evaluate
// through the metric kernel (bit-identical on every path by the
// metric.Kernel contract) and effects land through b.applyTask.
func newWorkpool[T wire.Scalar](b *builder[T], workers int) *engine.Pool[T] {
	dim := 0
	if len(b.shard.Vecs) > 0 {
		dim = len(b.shard.Vecs[0])
	}
	return engine.NewPool(engine.PoolConfig[T]{
		Workers:   workers,
		Dim:       dim,
		RingSize:  taskRingSize,
		BatchSize: taskBatchSize,
		Eval:      b.kern.EvalMany,
		Apply:     b.applyTask,
		Comm:      b.c,
		Trace:     b.c.Trace(),
	})
}
