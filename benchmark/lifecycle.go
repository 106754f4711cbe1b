package main

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"dnnd"
	"dnnd/internal/brute"
	"dnnd/internal/core"
	"dnnd/internal/dataset"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/recall"
	"dnnd/internal/ygm"
)

// inputs is everything one set-up generates from the seed.
type inputs struct {
	base  [][]float32 // the n points every build indexes
	pool  [][]float32 // rows beyond base: appended by refreshes, ingested by serve-mutable
	full  [][]float32 // base plus the first appendN pool rows: what dnnd.Refresh sees
	tombs *knng.TombSet

	qs    [][]float32
	truth [][]knng.ID // exact top-k of each query over base

	sample      []knng.ID   // vertices whose graph rows are scored
	sampleTruth [][]knng.ID // their exact k nearest other points
}

// buildOut is one construction and the counters it reported.
type buildOut struct {
	wall   time.Duration
	graph  *knng.Graph
	iters  int
	evals  int64
	msgs   int64
	bytes  int64
	allocs uint64
	// Only the traced run fills these: it drives core.BuildKernel the
	// way dnnd.Build does, to keep the rank-0 result and world counters.
	core *core.Result
	ygm  *ygm.Stats
}

// runner carries one run of one workload.
type runner struct {
	w       workload
	seed    int64
	cycles  int
	tr      *tracer // nil on the untraced run
	workDir string

	preset dataset.Preset
	dist   metric.Func[float32]
	opt    dnnd.BuildOptions

	in   *inputs
	path queryPath

	vals      map[string]float64   // metrics by name
	stages    map[string][]float64 // timed set-up stages, seconds per rep
	notes     []string
	attempted int
	failed    int
}

func newRunner(w workload, seed int64, cycles int, tr *tracer, workDir string) (*runner, error) {
	p, err := dataset.ByName(w.preset)
	if err != nil {
		return nil, err
	}
	dist, err := metric.ForFloat32(p.Metric)
	if err != nil {
		return nil, err
	}
	return &runner{
		w: w, seed: seed, cycles: cycles, tr: tr, workDir: workDir,
		preset: p, dist: dist,
		opt:    dnnd.BuildOptions{K: k, Metric: p.Metric, Ranks: w.ranks, Seed: seed},
		vals:   make(map[string]float64),
		stages: make(map[string][]float64),
	}, nil
}

func (r *runner) set(name string, v float64) { r.vals[name] = v }

func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// gate counts n attempted operations of which bad failed.
func (r *runner) gate(what string, n, bad int) {
	r.attempted += n
	r.failed += bad
	if bad > 0 {
		r.note("FAILED %s: %d of %d", what, bad, n)
	}
}

// stage times one set-up step under a span and files it under a
// per-layer metric name.
func (r *runner) stage(metricName, spanName string, fn func() error) error {
	defer r.tr.begin(spanName)()
	t0 := time.Now()
	err := fn()
	r.stages[metricName] = append(r.stages[metricName], time.Since(t0).Seconds())
	return err
}

// scratchDir returns a fresh directory under the run's work directory.
func (r *runner) scratchDir() (string, error) { return os.MkdirTemp(r.workDir, "open") }

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		total += info.Size()
		return err
	})
	return total, err
}

// makeInputs generates the dataset, the queries and their brute-force
// truth. The same seed always yields the same inputs.
func (r *runner) makeInputs() *inputs {
	w := r.w
	in := &inputs{}
	poolN := w.appendN
	if w.path == "mutable" {
		poolN *= r.cycles + 1 // every round, the warm-up too, ingests fresh rows
	}
	end := r.tr.begin("dataset.Generate")
	// Queries are held-out rows of the same draw, so they come from the
	// data's own distribution: dataset.GenerateQueries draws a fresh
	// mixture (new centres, new subspace), whose off-manifold queries make
	// recall and evaluations per query swing by tens of percent from one
	// seed to the next.
	all := dataset.Generate(r.preset, w.n+poolN+w.queries, r.seed).F32
	in.base, in.pool, in.qs = all[:w.n:w.n], all[w.n:w.n+poolN], all[w.n+poolN:]
	in.full = all[:w.n+w.appendN]
	rng := rand.New(rand.NewSource(r.seed))
	perm := rng.Perm(w.n)
	in.sample = make([]knng.ID, w.sample)
	sampleVecs := make([][]float32, w.sample)
	for i := range in.sample {
		in.sample[i] = knng.ID(perm[i])
		sampleVecs[i] = in.base[perm[i]]
	}
	in.tombs = dnnd.NewTombstones(len(in.full))
	for _, v := range perm[w.n-w.tombN:] {
		in.tombs.Kill(knng.ID(v))
	}
	end()

	defer r.tr.begin("brute.QueryKNN")()
	in.truth = brute.TruthIDs(brute.QueryKNN(in.base, in.qs, k, r.dist, clients))
	// A vertex is its own nearest point: ask for one more and drop it.
	in.sampleTruth = brute.TruthIDs(brute.QueryKNN(in.base, sampleVecs, k+1, r.dist, clients))
	for i, row := range in.sampleTruth {
		in.sampleTruth[i] = without(row, in.sample[i])[:k]
	}
	return in
}

func without(ids []knng.ID, drop knng.ID) []knng.ID {
	out := make([]knng.ID, 0, len(ids))
	for _, id := range ids {
		if id != drop {
			out = append(out, id)
		}
	}
	return out
}

func (r *runner) openPath(in *inputs, g *knng.Graph) (queryPath, error) {
	switch r.w.path {
	case "routed":
		return openRouted(r, in, g)
	case "mutable":
		return openMutable(r, in, g)
	default:
		return openInproc(r, in, g)
	}
}

// build runs one construction over the base points.
func (r *runner) build() (buildOut, error) {
	before, _ := memCounters()
	var out buildOut
	var err error
	if r.tr == nil {
		out, err = r.buildPlain(r.opt)
	} else {
		out, err = r.buildTraced()
	}
	after, _ := memCounters()
	out.allocs = after - before
	return out, err
}

func (r *runner) buildPlain(opt dnnd.BuildOptions) (buildOut, error) {
	defer r.tr.begin("dnnd.Build")()
	t0 := time.Now()
	res, err := dnnd.Build(r.in.base, opt)
	if err != nil {
		return buildOut{}, err
	}
	return buildOut{wall: time.Since(t0), graph: res.Graph, iters: res.Iters,
		evals: res.DistEvals, msgs: res.Messages, bytes: res.MessageBytes}, nil
}

// buildTraced takes exactly the steps dnnd.Build takes, but keeps the
// rank-0 core.Result (phase timings, kernel time, rounds) and the
// world's communication counters that dnnd.Build folds away.
func (r *runner) buildTraced() (buildOut, error) {
	defer r.tr.begin("core.BuildKernel")()
	kern, err := metric.KernelFor[float32](r.preset.Metric)
	if err != nil {
		return buildOut{}, err
	}
	cfg := core.DefaultConfig(k)
	cfg.Seed = r.seed
	if err := cfg.Validate(len(r.in.base)); err != nil {
		return buildOut{}, err
	}
	t0 := time.Now()
	world := ygm.NewLocalWorld(r.w.ranks)
	var root *core.Result // written by rank 0 only, read after Run returns
	err = world.Run(func(c *ygm.Comm) error {
		res, err := core.BuildKernel(c, core.Partition(r.in.base, c.Rank(), c.NRanks()), kern, cfg)
		if err == nil && c.Rank() == 0 {
			root = res
		}
		return err
	})
	if err != nil {
		return buildOut{}, err
	}
	st := world.AggregateStats()
	return buildOut{wall: time.Since(t0), graph: root.Graph, iters: root.Iters,
		evals: root.DistEvals, msgs: st.SentMsgs, bytes: st.SentBytes, core: root, ygm: &st}, nil
}

func graphHash(g *knng.Graph) uint64 {
	h := fnv.New64a()
	h.Write(g.Marshal())
	return h.Sum64()
}

// samples are the per-repetition measurements of the timed cycles.
type samples struct {
	setup, build, refresh, qps, blockP50 []float64
	lat, queue, exec, ingest, delete     []float64
	allocsBuild, allocsQuery, rss        []float64
	evals, queries                       int64
	warm                                 buildOut   // the untimed first build
	builds                               []buildOut // the timed ones
	lastBlock                            blockOut
	lastRefresh                          refreshOut
}

// run executes the workload: set-up, one untimed warm-up cycle, then
// the timed cycles with the remaining set-up repetitions interleaved,
// then the correctness checks.
func (r *runner) run() error {
	r.set("host.calib_start_ns", calibrate())
	var s samples

	// Set-up repetition 0 is split around the warm-up build, because
	// opening the query path needs a graph to open.
	r.tr.setGroup("setup0")
	t0 := time.Now()
	r.in = r.makeInputs()
	setup0 := time.Since(t0)

	r.tr.setGroup("cycle0")
	var err error
	if s.warm, err = r.build(); err != nil {
		return err
	}

	r.tr.setGroup("setup0")
	t0 = time.Now()
	r.path, err = r.openPath(r.in, s.warm.graph)
	if err != nil {
		return err
	}
	defer func() {
		if r.path != nil {
			r.path.close()
		}
	}()
	s.setup = append(s.setup, (setup0 + time.Since(t0)).Seconds())

	r.tr.setGroup("cycle0")
	if _, err := r.path.block(0); err != nil {
		return err
	}
	if _, err := r.path.refresh(); err != nil {
		return err
	}

	// The remaining set-up repetitions land after these cycles.
	setupAfter := make(map[int]bool)
	for i := 1; i < setupReps; i++ {
		setupAfter[i*r.cycles/setupReps] = true
	}
	for c := 1; c <= r.cycles; c++ {
		r.tr.setGroup(fmt.Sprintf("cycle%d", c))
		if err := r.timedCycle(c, &s); err != nil {
			return err
		}
		if setupAfter[c] {
			r.tr.setGroup(fmt.Sprintf("setup%d", len(s.setup)))
			runtime.GC()
			t0 := time.Now()
			scratch, err := r.openPath(r.makeInputs(), s.warm.graph)
			if err != nil {
				return err
			}
			s.setup = append(s.setup, time.Since(t0).Seconds())
			if err := scratch.close(); err != nil {
				return err
			}
		}
		if c == (r.cycles+1)/2 {
			r.set("host.calib_mid_ns", calibrate())
		}
	}

	r.tr.setGroup("verify")
	if err := r.verify(&s); err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.layers(&s); err != nil {
			return err
		}
	}
	r.path.layerMetrics(r.set)
	err = r.path.close()
	r.path = nil
	r.summarize(&s)
	return err
}

// timedCycle is one build, one query block and one refresh, each
// filed as a repetition.
func (r *runner) timedCycle(c int, s *samples) error {
	// Every cycle starts from a collected heap handed back to the
	// system, so its resident peak is its own and not the highest of
	// all the cycles before it.
	debug.FreeOSMemory()
	peakRSS := watchRSS()
	defer func() { s.rss = append(s.rss, peakRSS()) }()
	b, err := r.build()
	if err != nil {
		return err
	}
	s.build = append(s.build, b.wall.Seconds())
	s.allocsBuild = append(s.allocsBuild, float64(b.allocs))
	s.builds = append(s.builds, b)

	runtime.GC()
	before, _ := memCounters()
	blk, err := r.path.block(c)
	if err != nil {
		return err
	}
	after, _ := memCounters()
	s.qps = append(s.qps, float64(blk.queries)/blk.wall.Seconds())
	s.blockP50 = append(s.blockP50, median(blk.lat))
	s.allocsQuery = append(s.allocsQuery, float64(after-before)/float64(blk.calls))
	s.lat = append(s.lat, blk.lat...)
	s.queue = append(s.queue, blk.queue...)
	s.exec = append(s.exec, blk.exec...)
	s.ingest = append(s.ingest, blk.ingest...)
	s.delete = append(s.delete, blk.delete...)
	s.evals += blk.evals
	s.queries += int64(blk.queries)
	s.lastBlock = blk
	r.gate("requests", r.w.block, blk.failed)

	runtime.GC()
	rf, err := r.path.refresh()
	if err != nil {
		return err
	}
	s.refresh = append(s.refresh, rf.wall.Seconds())
	s.lastRefresh = rf
	r.attempted += 2 // the build and the refresh
	return nil
}

// verify checks the outputs and files the recall metrics.
func (r *runner) verify(s *samples) error {
	defer r.tr.begin("harness.verify")()
	in := r.in

	// Graph recall is the median over the timed builds: with several
	// ranks, message arrival order moves one build's recall by about half
	// a percent, which is as much as the bound allows.
	recalls := make([]float64, len(s.builds))
	got := make([][]knng.ID, len(in.sample))
	for b, build := range s.builds {
		for i, v := range in.sample {
			got[i] = neighborIDs(build.graph.Neighbors[v])
		}
		recalls[b] = recall.AtK(got, in.sampleTruth, k)
	}
	gr := median(recalls)
	r.set("graph_recall", gr)
	r.gate("graph_recall floor", 1, btoi(gr < graphRecallFloor))

	// A single rank has no message races, so every build of a run must
	// agree exactly; with several ranks arrival order moves the counters
	// by about a part in a thousand and only the recall is comparable.
	if r.w.ranks == 1 {
		ref, refHash := s.warm, graphHash(s.warm.graph)
		bad := 0
		for _, b := range s.builds {
			if b.iters != ref.iters || b.evals != ref.evals || b.msgs != ref.msgs ||
				b.bytes != ref.bytes || graphHash(b.graph) != refHash {
				bad++
			}
		}
		r.gate("exact counters across builds", len(s.builds), bad)
		r.note("exact: iters=%d dist_evals=%d messages=%d bytes=%d graph_hash=%016x",
			ref.iters, ref.evals, ref.msgs, ref.bytes, refHash)
	}

	truth, answers := in.truth, s.lastBlock.ids
	switch p := r.path.(type) {
	case *routedPath:
		n := min(200, len(in.qs))
		bad, err := p.exhaustive(n)
		if err != nil {
			return err
		}
		r.gate("routed top-k equals single-store top-k", n, bad)
	case *mutablePath:
		// Truth is brute force over what is live after the last flush.
		n := min(1000, len(in.qs))
		rf := s.lastRefresh
		live, ids := liveRows(rf.data, rf.tombs)
		var bad int
		var err error
		if answers, bad, err = p.verify(n, rf.tombs); err != nil {
			return err
		}
		r.gate("tombstoned IDs returned", n, bad)
		truth = remap(brute.TruthIDs(brute.QueryKNN(live, in.qs[:n], k, r.dist, clients)), ids)
	}
	qr := recall.AtK(answers, truth, k)
	r.set("query_recall", qr)
	r.gate("query_recall floor", 1, btoi(qr < queryRecallFloor))

	r.checkRefresh(s.lastRefresh)
	return nil
}

// liveRows returns the rows of data that are not tombstoned, with the
// ID each came from.
func liveRows(data [][]float32, dead *knng.TombSet) ([][]float32, []knng.ID) {
	live := make([][]float32, 0, len(data))
	ids := make([]knng.ID, 0, len(data))
	for i, row := range data {
		if !dead.Dead(knng.ID(i)) {
			live = append(live, row)
			ids = append(ids, knng.ID(i))
		}
	}
	return live, ids
}

func remap(rows [][]knng.ID, ids []knng.ID) [][]knng.ID {
	for _, row := range rows {
		for j, id := range row {
			row[j] = ids[id]
		}
	}
	return rows
}

// checkRefresh verifies the last incremental update: it covers every
// row, no live vertex is left empty or pointing at a dead one, and the
// appended rows found their true neighbours.
func (r *runner) checkRefresh(rf refreshOut) {
	g, bad := rf.graph, 0
	if g.NumVertices() != len(rf.data) {
		bad++
	}
	for v, ns := range g.Neighbors {
		if rf.tombs.Dead(knng.ID(v)) {
			continue
		}
		if len(ns) == 0 {
			bad++
		}
		for _, e := range ns {
			if rf.tombs.Dead(e.ID) {
				bad++
			}
		}
	}
	r.gate("refreshed graph structure", 1, btoi(bad > 0))

	live, ids := liveRows(rf.data, rf.tombs)
	n := min(200, len(rf.data)-rf.first)
	rows := make([]knng.ID, 0, n)
	vecs := make([][]float32, 0, n)
	for v := rf.first; len(rows) < n && v < len(rf.data); v++ {
		if !rf.tombs.Dead(knng.ID(v)) {
			rows = append(rows, knng.ID(v))
			vecs = append(vecs, rf.data[v])
		}
	}
	truth := remap(brute.TruthIDs(brute.QueryKNN(live, vecs, k+1, r.dist, clients)), ids)
	got := make([][]knng.ID, len(rows))
	for i, v := range rows {
		truth[i] = without(truth[i], v)[:k]
		got[i] = neighborIDs(g.Neighbors[v])
	}
	rr := recall.AtK(got, truth, k)
	r.note("refresh recall of appended rows: %.4f over %d rows", rr, len(rows))
	r.gate("refresh recall floor", 1, btoi(rr < refreshRecallFloor))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// summarize turns the samples into metrics: each timed end-to-end
// number is the median of its repetitions.
func (r *runner) summarize(s *samples) {
	r.set("setup_s", median(s.setup))
	r.set("build_s", median(s.build))
	r.set("refresh_s", median(s.refresh))
	r.set("query_qps", median(s.qps))
	lat := sorted(s.lat)
	r.set("query_p50_us", percentile(lat, 0.5))
	r.set("client.query_p90_us", percentile(lat, 0.9))
	pct, tv := tail(lat)
	r.set("client.query_tail_pct", pct)
	r.set("client.query_tail_us", tv)
	r.note("query latency over %d samples; tail is p%.3f", len(lat), pct)

	r.note("reps setup_s %.3f build_s %.3f refresh_s %.3f query_qps %.0f block_p50_us %.1f cycle_rss_mb %.0f",
		s.setup, s.build, s.refresh, s.qps, s.blockP50, s.rss)
	r.set("setup_s.iqr_frac", iqrFrac(s.setup))
	r.set("build_s.iqr_frac", iqrFrac(s.build))
	r.set("refresh_s.iqr_frac", iqrFrac(s.refresh))
	r.set("query_qps.iqr_frac", iqrFrac(s.qps))
	r.set("query_p50_us.iqr_frac", iqrFrac(s.blockP50))

	r.set("search.evals_per_query", float64(s.evals)/float64(s.queries))
	r.set("proc.allocs_per_build", median(s.allocsBuild))
	r.set("proc.allocs_per_query", median(s.allocsQuery))
	if len(s.queue) > 0 {
		// Client latency splits into the server's queue wait and
		// execution plus everything else: codecs, sockets, the router.
		q, e := median(s.queue), median(s.exec)
		r.set("serve.queue_wait_p50_us", q)
		r.set("serve.exec_p50_us", e)
		r.set("serve.wire_p50_us", r.vals["query_p50_us"]-q-e)
	}
	if r.w.path == "mutable" {
		r.set("serve.direct_p50_us", r.vals["query_p50_us"])
		r.set("serve.ingest_p50_us", median(s.ingest))
		r.set("serve.delete_p50_us", median(s.delete))
		r.set("serve.flush_p50_ms", 1e3*median(s.refresh))
	}
	for name, reps := range r.stages {
		r.set(name, median(reps))
	}
	if direct, ok := r.vals["serve.direct_p50_us"]; ok && r.w.path == "routed" {
		r.set("router.tax_p50_us", r.vals["query_p50_us"]-direct)
	}

	r.set("host.calib_end_ns", calibrate())
	cpu, rss := procUsage()
	_, pause := memCounters()
	r.set("proc.cpu_s", cpu)
	r.set("proc.gc_pause_ms", float64(pause.Microseconds())/1e3)
	r.set("proc.lifetime_rss_mb", rss)
	// The lifetime maximum is the highest of six noisy cycle peaks (GC
	// pacing moves one by 15%), so the metric is the median cycle's.
	if peak := median(s.rss); peak > 0 {
		rss = peak
	} // else there is no /proc/self/statm here
	r.set("peak_rss_mb", rss)
}

// sortedNames returns the metric names collected, in order.
func (r *runner) sortedNames() []string {
	names := make([]string, 0, len(r.vals))
	for name := range r.vals {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
