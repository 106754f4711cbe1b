package main

// This file is the definition of the benchmark: its workloads, its
// metrics and their bounds. BENCHMARK.json at the repository root is
// this table written out (smoke_test.go fails when the two differ), so
// a name changes here or nowhere.

const (
	k       = 10 // neighbours per vertex, and recall@k
	clients = 2  // closed-loop callers: goroutines, connections, search workers
	shards  = 3  // serve-routed cluster width

	// runSeconds is the nominal length of the measured part of a run.
	// Work is fixed, not time: --seconds only scales the number of timed
	// cycles (nominalCycles at runSeconds), so both sides of a
	// comparison always do identical work.
	runSeconds    = 20
	nominalCycles = 5
	setupReps     = 3

	// Correctness floors; a run below either counts a failed operation.
	// They sit five points under what the workloads measure (0.95-0.98):
	// a floor is there to catch a broken graph, the bounds catch drift.
	graphRecallFloor = 0.90
	queryRecallFloor = 0.90
	// refreshRecallFloor gates the neighbour lists Refresh (or a served
	// Flush) builds for appended points.
	refreshRecallFloor = 0.85
)

// workload is one set of inputs: a dataset, a construction
// configuration and the path queries and refreshes take.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"` // the rest is unexported, so BENCHMARK.json carries these two

	preset  string
	n       int // base points
	ranks   int
	queries int // distinct query vectors with brute-force truth
	sample  int // vertices sampled for graph recall
	appendN int // rows appended per refresh
	tombN   int // rows tombstoned per refresh
	l       int
	epsilon float64
	path    string // "inproc", "routed" or "mutable"
	block   int    // requests per timed query block
	// idle lists the per-layer name prefixes this workload never enters;
	// those metrics are emitted as 0 (the layer's cost here is nothing).
	idle []string
}

// Search parameters are tuned once so query_recall lands in 0.93-0.97
// on seed 1 and are frozen here: a saturated recall of 1.0 would hide a
// search regression.
var workloads = []workload{
	{
		Name:   "build-deep-r4",
		Why:    "protocol-bound construction: 96-d deep, 4 ranks, so msg/wire codecs, ygm mailboxes and barriers and knng updates dominate and the metric kernel does little",
		preset: "deep", n: 12000, ranks: 4, queries: 2000, sample: 1000,
		appendN: 1800, tombN: 360, l: 10, epsilon: 0.10,
		path: "inproc", block: 24000,
		idle: []string{"serve.", "router.", "store."},
	},
	{
		Name:   "build-gist-r1",
		Why:    "kernel-bound construction: 960-d gist, 1 rank, no cross-rank traffic; single-rank so core.dist_evals, core.iters, ygm.messages and ygm.bytes repeat exactly",
		preset: "gist", n: 2400, ranks: 1, queries: 2000, sample: 1000,
		appendN: 480, tombN: 96, l: 10, epsilon: 0.05,
		path: "inproc", block: 12000,
		idle: []string{"serve.", "router.", "store."},
	},
	{
		Name:   "serve-routed",
		Why:    "read-only cluster path: deep split into 3 shard servers behind one router on loopback, so router scatter/merge, serve batching and msg serve codecs dominate",
		preset: "deep", n: 12000, ranks: 4, queries: 2000, sample: 1000,
		appendN: 1800, tombN: 360, l: 10, epsilon: 0.03,
		path: "routed", block: 5000,
		idle: []string{"serve.ingest", "serve.delete", "serve.flush", "serve.refine"},
	},
	{
		Name:   "serve-mutable",
		Why:    "writes beside reads on one mutable server: ingest, delete and a blocking flush (incremental refine and snapshot swap) under closed-loop queries",
		preset: "deep", n: 12000, ranks: 4, queries: 2000, sample: 1000,
		appendN: 1600, tombN: 160, l: 10, epsilon: 0.10,
		path: "mutable", block: 16000,
		idle: []string{"router.", "store."},
	},
}

// ingestBatch is how many vectors one serve-mutable ingest carries; a
// round makes appendN/ingestBatch ingests and tombN single-ID deletes
// among its block requests (2.5% and 1% of them).
const ingestBatch = 4

// quick shrinks a workload to smoke-test scale.
func (w workload) quick() workload {
	w.n /= 10
	w.queries = 100
	w.sample = 100
	w.appendN /= 10
	w.tombN /= 10
	w.block /= 20
	return w
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef declares one metric. Only end-to-end metrics have a bound;
// per-layer ones leave it 0 and BENCHMARK.json omits it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// emits all of them: a phase that is not native to a workload (a build
// on serve-*) runs at build-deep-r4's sizes with the same repetitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"build_s", "s", "lower", 0.25},
	{"graph_recall", "frac", "higher", 0.02},
	{"refresh_s", "s", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_recall", "frac", "higher", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run; the prefix
// is the module the number belongs to.
var perLayer = []metricDef{
	{Name: "metric.pair_ns_per_eval", Unit: "ns", Better: "lower"},
	{Name: "metric.tile_ns_per_eval", Unit: "ns", Better: "lower"},
	{Name: "engine.kernel_s", Unit: "s", Better: "lower"},
	{Name: "engine.offload_frac", Unit: "frac", Better: "higher"},
	{Name: "engine.tasks", Unit: "count", Better: "lower"},
	{Name: "engine.cands_per_task", Unit: "count", Better: "higher"},
	{Name: "core.init_s", Unit: "s", Better: "lower"},
	{Name: "core.sample_s", Unit: "s", Better: "lower"},
	{Name: "core.reverse_s", Unit: "s", Better: "lower"},
	{Name: "core.checks_s", Unit: "s", Better: "lower"},
	{Name: "core.optimize_s", Unit: "s", Better: "lower"},
	{Name: "core.gather_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_sum_frac", Unit: "frac", Better: "higher"},
	{Name: "core.iters", Unit: "count", Better: "lower"},
	{Name: "core.dist_evals", Unit: "count", Better: "lower"},
	{Name: "core.updates_per_check", Unit: "frac", Better: "higher"},
	{Name: "ygm.messages", Unit: "count", Better: "lower"},
	{Name: "ygm.bytes", Unit: "B", Better: "lower"},
	{Name: "ygm.remote_frac", Unit: "frac", Better: "lower"},
	{Name: "ygm.flushes", Unit: "count", Better: "lower"},
	{Name: "ygm.barriers", Unit: "count", Better: "lower"},
	{Name: "ygm.peak_mailbox_bytes", Unit: "B", Better: "lower"},
	{Name: "ygm.barrier_us", Unit: "us", Better: "lower"},
	{Name: "ygm.msg_self_ns", Unit: "ns", Better: "lower"},
	{Name: "ygm.msg_remote_ns", Unit: "ns", Better: "lower"},
	{Name: "msg.type2_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "msg.type2_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "msg.squery_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "knng.update_ns", Unit: "ns", Better: "lower"},
	{Name: "search.evals_per_query", Unit: "count", Better: "lower"},
	{Name: "search.visited_per_query", Unit: "count", Better: "lower"},
	{Name: "search.ns_per_eval", Unit: "ns", Better: "lower"},
	{Name: "search.truncated", Unit: "count", Better: "lower"},
	{Name: "store.save_s", Unit: "s", Better: "lower"},
	{Name: "store.load_s", Unit: "s", Better: "lower"},
	{Name: "store.split_s", Unit: "s", Better: "lower"},
	{Name: "store.bytes_per_point", Unit: "B", Better: "lower"},
	{Name: "serve.queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.exec_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.wire_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.direct_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.ingest_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.delete_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.flush_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.refine_evals", Unit: "count", Better: "lower"},
	{Name: "router.tax_p50_us", Unit: "us", Better: "lower"},
	{Name: "router.subquery_mean_us", Unit: "us", Better: "lower"},
	{Name: "router.fanout", Unit: "count", Better: "lower"},
	{Name: "router.failovers", Unit: "count", Better: "lower"},
	{Name: "router.shard_errors", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "obs.trace_events", Unit: "count", Better: "lower"},
	{Name: "client.query_p90_us", Unit: "us", Better: "lower"},
	{Name: "client.query_tail_us", Unit: "us", Better: "lower"},
	{Name: "client.query_tail_pct", Unit: "%", Better: "higher"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.allocs_per_build", Unit: "count", Better: "lower"},
	{Name: "proc.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.lifetime_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.calib_start_ns", Unit: "ns", Better: "lower"},
	{Name: "host.calib_mid_ns", Unit: "ns", Better: "lower"},
	{Name: "host.calib_end_ns", Unit: "ns", Better: "lower"},
	{Name: "harness.self_s", Unit: "s", Better: "lower"},
	{Name: "setup_s.iqr_frac", Unit: "frac", Better: "lower"},
	{Name: "build_s.iqr_frac", Unit: "frac", Better: "lower"},
	{Name: "refresh_s.iqr_frac", Unit: "frac", Better: "lower"},
	{Name: "query_qps.iqr_frac", Unit: "frac", Better: "lower"},
	{Name: "query_p50_us.iqr_frac", Unit: "frac", Better: "lower"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

// describe renders the tables above as BENCHMARK.json.
func describe() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
