package serve

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dnnd/internal/obs"
)

// Hist is the shared log-bucketed histogram (promoted to internal/obs
// so every subsystem — serve, bench, the debug listener — speaks one
// implementation and one dump format). The alias keeps the serve API
// and tests unchanged.
type Hist = obs.Hist

// Metrics is the server's observability surface: monotonic counters,
// instantaneous gauges (closures, sampled at dump time), and latency
// histograms. All fields are safe for concurrent use.
type Metrics struct {
	// Admission counters.
	Accepted          atomic.Int64 // admitted into the queue
	RejectedOverload  atomic.Int64 // typed overload rejections (queue full)
	RejectedDraining  atomic.Int64 // typed rejections during drain
	RejectedBad       atomic.Int64 // malformed queries
	DeadlineDropped   atomic.Int64 // expired while queued, dropped pre-exec
	DeadlineTruncated atomic.Int64 // deadline hit mid-traversal (partial reply)
	CompletedOK       atomic.Int64 // full answers
	Completed         atomic.Int64 // all admitted requests replied (any status)
	WriteErrors       atomic.Int64 // replies lost to dead client connections

	// Work counters.
	DistEvals atomic.Int64

	// Endpoint counters (non-query ops).
	Hellos, StatsDumps, HealthProbes atomic.Int64

	// Mutation counters (mutable servers; all zero on frozen ones).
	IngestOps        atomic.Int64 // SIngest frames handled
	DeleteOps        atomic.Int64 // SDelete frames handled
	FlushOps         atomic.Int64 // SFlush frames handled
	Ingested         atomic.Int64 // vectors appended to the delta
	Tombstoned       atomic.Int64 // IDs newly tombstoned
	Refines          atomic.Int64 // snapshots published by the refiner
	RefineErrors     atomic.Int64 // refinements that failed (snapshot kept)
	RejectedReadOnly atomic.Int64 // mutations against a frozen server
	MutLogErrors     atomic.Int64 // durability hook failures (non-fatal)

	// Gauges.
	InFlight     atomic.Int64 // admitted, not yet replied
	Conns        atomic.Int64
	ConnsTotal   atomic.Int64
	QueueMax     atomic.Int64  // high-water queue depth
	QueueDepth   func() int    // instantaneous, sampled at dump time
	QueueCap     int           //
	Gen          func() uint64 // published snapshot generation (mutable servers)
	PendingDelta func() int    // ingested rows not yet refined into the graph

	// Histograms (latencies in microseconds).
	LatTotal Hist // admission to reply written
	LatQueue Hist // admission to execution start
	LatExec  Hist // execution only
	// BatchSize observes 1 per executed query: workers run one query
	// at a time, so its mean is exactly 1. It stays only because the
	// repository benchmark derives its declared serve.batch_mean row
	// from it and that benchmark's smoke test requires every declared
	// row; it goes once the benchmark drops the row.
	BatchSize Hist

	regOnce sync.Once
	reg     *obs.Registry
}

// Registry lazily builds (once) the obs.Registry view of these
// metrics, with every counter, gauge, and histogram registered under
// its dnnd_serve_* name in the dump order the stats endpoint has
// always used. The same registry backs Dump, the wire-protocol stats
// op, and the debug listener's /metrics endpoints. Call it after the
// QueueDepth gauge closure is assigned — i.e. any time after New
// returns.
func (m *Metrics) Registry() *obs.Registry {
	m.regOnce.Do(func() {
		r := obs.NewRegistry()
		for _, sc := range []struct {
			status string
			c      *atomic.Int64
		}{
			{"ok", &m.CompletedOK},
			{"partial", &m.DeadlineTruncated},
			{"deadline", &m.DeadlineDropped},
			{"overloaded", &m.RejectedOverload},
			{"draining", &m.RejectedDraining},
			{"bad_request", &m.RejectedBad},
		} {
			r.Sample(fmt.Sprintf("dnnd_serve_queries_total{status=%q}", sc.status), sc.c.Load)
		}
		r.Sample("dnnd_serve_accepted_total", m.Accepted.Load)
		r.Sample("dnnd_serve_completed_total", m.Completed.Load)
		r.Sample("dnnd_serve_write_errors_total", m.WriteErrors.Load)
		r.Sample("dnnd_serve_dist_evals_total", m.DistEvals.Load)
		r.Sample("dnnd_serve_hello_total", m.Hellos.Load)
		r.Sample("dnnd_serve_stats_total", m.StatsDumps.Load)
		r.Sample("dnnd_serve_health_total", m.HealthProbes.Load)
		r.Sample("dnnd_serve_inflight", m.InFlight.Load)
		r.Sample("dnnd_serve_connections", m.Conns.Load)
		r.Sample("dnnd_serve_connections_total", m.ConnsTotal.Load)
		if m.QueueDepth != nil {
			r.Sample("dnnd_serve_queue_depth", func() int64 { return int64(m.QueueDepth()) })
		}
		r.Sample("dnnd_serve_queue_depth_max", m.QueueMax.Load)
		r.Sample("dnnd_serve_queue_cap", func() int64 { return int64(m.QueueCap) })
		r.Sample("dnnd_serve_ingest_ops_total", m.IngestOps.Load)
		r.Sample("dnnd_serve_delete_ops_total", m.DeleteOps.Load)
		r.Sample("dnnd_serve_flush_ops_total", m.FlushOps.Load)
		r.Sample("dnnd_serve_ingested_total", m.Ingested.Load)
		r.Sample("dnnd_serve_tombstoned_total", m.Tombstoned.Load)
		r.Sample("dnnd_serve_refines_total", m.Refines.Load)
		r.Sample("dnnd_serve_refine_errors_total", m.RefineErrors.Load)
		r.Sample("dnnd_serve_rejected_read_only_total", m.RejectedReadOnly.Load)
		r.Sample("dnnd_serve_mutlog_errors_total", m.MutLogErrors.Load)
		if m.Gen != nil {
			r.Sample("dnnd_serve_generation", func() int64 { return int64(m.Gen()) })
		}
		if m.PendingDelta != nil {
			r.Sample("dnnd_serve_pending_delta", func() int64 { return int64(m.PendingDelta()) })
		}
		// Allocator pressure: the whole point of the pooled-context hot
		// path is that these stay flat under load. Sampled at dump time
		// (one ReadMemStats per gauge read; dumps are rare).
		r.Sample("dnnd_serve_gc_cycles_total", func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.NumGC)
		})
		r.Sample("dnnd_serve_mallocs_total", func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.Mallocs)
		})
		r.Sample("dnnd_serve_heap_alloc_bytes", func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		})
		r.RegisterHist("dnnd_serve_latency_usec", &m.LatTotal)
		r.RegisterHist("dnnd_serve_queue_wait_usec", &m.LatQueue)
		r.RegisterHist("dnnd_serve_exec_usec", &m.LatExec)
		r.RegisterHist("dnnd_serve_batch_size", &m.BatchSize)
		m.reg = r
	})
	return m.reg
}

// Dump renders the metrics in a /metrics-style plain-text format: one
// `name{labels} value` line per sample, floats for quantiles,
// integers for counters and gauges — the obs.Registry text format.
func (m *Metrics) Dump() string {
	return m.Registry().DumpString()
}

// quantiles computes exact client-side quantiles from a latency sample
// (shared by the load generator's report; lives here so the server
// tests can reuse it).
func quantiles(us []float64) (p50, p90, p95, p99, mean, max float64) {
	if len(us) == 0 {
		return
	}
	sorted := append([]float64(nil), us...)
	sort.Float64s(sorted)
	at := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return at(0.5), at(0.9), at(0.95), at(0.99), sum / float64(len(sorted)), sorted[len(sorted)-1]
}
