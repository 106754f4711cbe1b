package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dnnd"
	"dnnd/internal/knng"
	"dnnd/internal/msg"
	"dnnd/internal/obs"
	"dnnd/internal/router"
	"dnnd/internal/search"
	"dnnd/internal/serve"
)

// blockOut is what one closed-loop request block measured.
type blockOut struct {
	wall    time.Duration // of the throughput part
	queries int           // queries completed in that part
	calls   int           // every call into the program the block made
	lat     []float64     // per-query latency, µs at ns resolution
	queue   []float64     // server-reported queue wait per query, µs (served paths)
	exec    []float64     // server-reported execution per query, µs (served paths)
	evals   int64         // distance evaluations the queries cost
	ids     [][]knng.ID   // answers to the first len(qs) requests
	failed  int           // non-OK replies
	ingest  []float64     // per-op latency, µs (serve-mutable)
	delete  []float64
}

// refreshOut is one incremental update and the state it produced, so
// the harness can check it.
type refreshOut struct {
	wall  time.Duration
	graph *knng.Graph
	data  [][]float32
	tombs *knng.TombSet
	first int // first row the update appended
}

// queryPath is the route a workload's queries and refreshes take.
type queryPath interface {
	// block runs one closed-loop block of w.block requests.
	block(round int) (blockOut, error)
	// refresh runs one incremental update: dnnd.Refresh, or a blocking
	// Flush on the mutable server.
	refresh() (refreshOut, error)
	// layerMetrics exports what the path's servers counted.
	layerMetrics(set func(name string, v float64))
	close() error
}

// ---- in-process: Index.SearchBatch -----------------------------------

type inprocPath struct {
	r     *runner
	in    *inputs
	ix    *dnnd.Index[float32]
	batch [][]float32 // the block's queries, cycling over in.qs
}

func openInproc(r *runner, in *inputs, g *knng.Graph) (queryPath, error) {
	defer r.tr.begin("dnnd.NewIndex")()
	ix, err := dnnd.NewIndex(g, in.base, r.preset.Metric, k)
	if err != nil {
		return nil, err
	}
	batch := make([][]float32, r.w.block)
	for i := range batch {
		batch[i] = in.qs[i%len(in.qs)]
	}
	return &inprocPath{r: r, in: in, ix: ix, batch: batch}, nil
}

// block measures throughput with one SearchBatch over the whole block,
// then latency with the same callers issuing single Search calls.
func (p *inprocPath) block(int) (blockOut, error) {
	w := p.r.w
	end := p.r.tr.begin("Index.SearchBatch")
	t0 := time.Now()
	res, evals := p.ix.SearchBatch(p.batch, w.l, w.epsilon, clients)
	out := blockOut{wall: time.Since(t0), queries: len(res), evals: evals}
	out.calls = len(res) + len(p.in.qs)/clients*clients
	end()
	out.ids = search.IDs(res[:len(p.in.qs)])

	defer p.r.tr.begin("Index.Search")()
	per := len(p.in.qs) / clients
	out.lat = make([]float64, per*clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * per; i < (c+1)*per; i++ {
				t := time.Now()
				p.ix.Search(p.in.qs[i], w.l, w.epsilon)
				out.lat[i] = float64(time.Since(t).Nanoseconds()) / 1e3
			}
		}(c)
	}
	wg.Wait()
	return out, nil
}

func (p *inprocPath) refresh() (refreshOut, error) { return libraryRefresh(p.r, p.in, p.ix.Graph()) }

func (p *inprocPath) layerMetrics(func(string, float64)) {}
func (p *inprocPath) close() error                       { return nil }

// libraryRefresh is dnnd.Refresh over the base graph with the
// workload's fixed delta appended and tombstoned.
func libraryRefresh(r *runner, in *inputs, prior *knng.Graph) (refreshOut, error) {
	defer r.tr.begin("dnnd.Refresh")()
	t0 := time.Now()
	res, err := dnnd.Refresh(in.full, prior, in.tombs, r.opt)
	if err != nil {
		return refreshOut{}, err
	}
	return refreshOut{wall: time.Since(t0), graph: res.Graph, data: in.full, tombs: in.tombs, first: len(in.base)}, nil
}

func neighborIDs(ns []knng.Neighbor) []knng.ID {
	ids := make([]knng.ID, len(ns))
	for i, e := range ns {
		ids[i] = e.ID
	}
	return ids
}

// ---- served paths: shared server and client plumbing -----------------

// listener is one started server or router with the way to stop it.
type listener struct {
	addr string
	stop func() error // drains, closes, and waits for the accept loop
}

// listen serves on a fresh loopback port until stop is called.
func listen(serveFn func(net.Listener) error, shutdown func(context.Context) error) (listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return listener{}, err
	}
	done := make(chan error, 1)
	go func() { done <- serveFn(ln) }()
	return listener{addr: ln.Addr().String(), stop: func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := shutdown(ctx)
		return errors.Join(err, <-done)
	}}, nil
}

func sourceOf(ix *dnnd.Index[float32], refined bool) serve.Source[float32] {
	return serve.Source[float32]{
		Graph: ix.Graph(), Data: ix.Data(), Dist: ix.Dist(),
		Metric: string(ix.Metric()), K: ix.K(), Refined: refined,
	}
}

// Request kinds of a closed-loop plan.
const (
	opQuery uint8 = iota
	opIngest
	opDelete
)

// op is one planned request: a query vector index, the first pool row
// of an ingest batch, or the ID to delete.
type op struct {
	kind uint8
	arg  int
}

// served is the client side of both served paths: persistent
// connections, one per closed-loop caller.
type served struct {
	w     workload
	qs    [][]float32
	pool  [][]float32
	conns []*serve.Client
}

func dialAll(addr string) ([]*serve.Client, error) {
	conns := make([]*serve.Client, clients)
	for i := range conns {
		c, err := serve.Dial(addr, 5*time.Second)
		if err != nil {
			closeAll(conns[:i])
			return nil, err
		}
		conns[i] = c
	}
	return conns, nil
}

func closeAll(conns []*serve.Client) {
	for _, c := range conns {
		c.Close()
	}
}

// run issues ops in order over the connections, closed loop: each
// caller sends its next request only after the previous reply. A
// transport error aborts the block; a non-OK status counts as failed.
func (s *served) run(ops []op, epsilon float64, seed int64) (blockOut, error) {
	out := blockOut{ids: make([][]knng.ID, len(s.qs)), calls: len(ops)}
	lat := make([]float64, len(ops))
	queue := make([]float64, len(ops))
	exec := make([]float64, len(ops))
	var next, evals, failed atomic.Int64
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, c := range s.conns {
		wg.Add(1)
		go func(ci int, c *serve.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := ops[i]
				var status uint8
				var err error
				t := time.Now()
				switch o.kind {
				case opQuery:
					var res *msg.SResult
					res, err = serve.Do(c, &msg.SQuery[float32]{
						ID: uint64(i), Seed: seed*1_000_003 + int64(i),
						L: uint32(s.w.l), Epsilon: float32(epsilon), Vec: s.qs[o.arg],
					})
					lat[i] = float64(time.Since(t).Nanoseconds()) / 1e3
					if err == nil {
						status = res.Status
						queue[i], exec[i] = float64(res.QueueMicros), float64(res.ExecMicros)
						evals.Add(res.DistEvals)
						if i < len(out.ids) {
							out.ids[i] = neighborIDs(res.Neighbors)
						}
					}
				case opIngest:
					var up *msg.SUpdateReply
					up, err = serve.Ingest(c, s.pool[o.arg:o.arg+ingestBatch])
					lat[i] = float64(time.Since(t).Nanoseconds()) / 1e3
					if err == nil {
						status = up.Status
					}
				case opDelete:
					var up *msg.SUpdateReply
					up, err = c.Delete([]knng.ID{knng.ID(o.arg)})
					lat[i] = float64(time.Since(t).Nanoseconds()) / 1e3
					if err == nil {
						status = up.Status
					}
				}
				if err != nil {
					errs[ci] = fmt.Errorf("request %d: %w", i, err)
					return
				}
				if status != msg.SStatusOK {
					failed.Add(1)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	out.wall = time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	for i, o := range ops {
		switch o.kind {
		case opQuery:
			out.queries++
			out.lat = append(out.lat, lat[i])
			out.queue = append(out.queue, queue[i])
			out.exec = append(out.exec, exec[i])
		case opIngest:
			out.ingest = append(out.ingest, lat[i])
		case opDelete:
			out.delete = append(out.delete, lat[i])
		}
	}
	out.evals, out.failed = evals.Load(), int(failed.Load())
	return out, nil
}

// queryOps is a read-only plan: n queries cycling over the distinct
// query vectors.
func queryOps(n, distinct int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{opQuery, i % distinct}
	}
	return ops
}

// serveCounters folds the servers' own counters into layer metrics.
func serveCounters(servers []*serve.Server[float32], set func(string, float64)) {
	var batches, batched, rejected int64
	for _, s := range servers {
		m := s.Metrics()
		batches += m.BatchSize.Count()
		batched += m.BatchSize.Sum()
		rejected += m.RejectedOverload.Load() + m.RejectedDraining.Load() +
			m.RejectedBad.Load() + m.DeadlineDropped.Load()
	}
	if batches > 0 {
		set("serve.batch_mean", float64(batched)/float64(batches))
	}
	set("serve.rejected", float64(rejected))
}

// ---- routed: Save -> Split -> shard servers -> router ----------------

type routedPath struct {
	served
	r       *runner
	in      *inputs
	ix      *dnnd.Index[float32] // the unsplit index: exhaustive-merge reference
	servers []*serve.Server[float32]
	rt      *router.Router
	stops   []func() error
}

func openRouted(r *runner, in *inputs, g *knng.Graph) (queryPath, error) {
	p := &routedPath{r: r, in: in, served: served{w: r.w, qs: in.qs}}
	if err := p.open(g); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *routedPath) open(g *knng.Graph) (err error) {
	r := p.r
	dir, err := r.scratchDir()
	if err != nil {
		return err
	}
	store, cluster := filepath.Join(dir, "store"), filepath.Join(dir, "cluster")
	if p.ix, err = dnnd.NewIndex(g, p.in.base, r.preset.Metric, k); err != nil {
		return err
	}
	err = r.stage("store.save_s", "dnnd.Save", func() error { return dnnd.Save(store, p.ix, true) })
	if err != nil {
		return err
	}
	var man *router.Manifest
	err = r.stage("store.split_s", "dnnd.Split", func() error {
		man, err = dnnd.Split[float32](store, cluster, shards, r.opt)
		return err
	})
	if err != nil {
		return err
	}
	if size, err := dirSize(store); err == nil {
		r.set("store.bytes_per_point", float64(size)/float64(len(p.in.base)))
	}
	groups := make([][]string, shards)
	for s := 0; s < shards; s++ {
		var six *dnnd.Index[float32]
		var refined bool
		err = r.stage("store.load_s", "dnnd.LoadWithMeta", func() error {
			six, refined, err = dnnd.LoadWithMeta[float32](dnnd.ShardDir(cluster, s))
			return err
		})
		if err != nil {
			return err
		}
		end := r.tr.begin("serve.New")
		srv, err := serve.New(sourceOf(six, refined), serve.Config{L: r.w.l, Epsilon: r.w.epsilon})
		end()
		if err != nil {
			return err
		}
		ln, err := listen(srv.Serve, srv.Shutdown)
		if err != nil {
			return err
		}
		p.servers = append(p.servers, srv)
		p.stops = append(p.stops, ln.stop)
		groups[s] = []string{ln.addr}
	}
	end := r.tr.begin("router.New")
	p.rt, err = router.New(man, groups, router.Config{L: r.w.l, Epsilon: r.w.epsilon})
	end()
	if err != nil {
		return err
	}
	ln, err := listen(p.rt.Serve, p.rt.Shutdown)
	if err != nil {
		return err
	}
	// The router stops first: it holds connections to the shards.
	p.stops = append([]func() error{ln.stop}, p.stops...)
	p.conns, err = dialAll(ln.addr)
	return err
}

func (p *routedPath) block(round int) (blockOut, error) {
	defer p.r.tr.begin("router.block")()
	return p.run(queryOps(p.w.block, len(p.qs)), p.w.epsilon, int64(round))
}

func (p *routedPath) refresh() (refreshOut, error) { return libraryRefresh(p.r, p.in, p.ix.Graph()) }

// exhaustive counts the queries whose routed top-k differs from the
// single-store answer when epsilon is so large that neither traversal
// prunes, the cluster's correctness contract.
func (p *routedPath) exhaustive(n int) (mismatched int, err error) {
	defer p.r.tr.begin("router.exhaustive")()
	const huge = 1000
	want, _ := p.ix.SearchBatch(p.qs[:n], p.w.l, huge, clients)
	got, err := p.run(queryOps(n, n), huge, 0)
	if err != nil {
		return 0, err
	}
	for i := range want {
		if !equalIDs(got.ids[i], neighborIDs(want[i])) {
			mismatched++
		}
	}
	return mismatched + got.failed, nil
}

func equalIDs(a, b []knng.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// direct measures the same queries against one unsharded server over
// the unsplit index: the baseline the router's tax is taken from.
func (p *routedPath) direct() (float64, error) {
	defer p.r.tr.begin("serve.direct")()
	srv, err := serve.New(sourceOf(p.ix, true), serve.Config{L: p.w.l, Epsilon: p.w.epsilon})
	if err != nil {
		return 0, err
	}
	ln, err := listen(srv.Serve, srv.Shutdown)
	if err != nil {
		return 0, err
	}
	defer ln.stop()
	conns, err := dialAll(ln.addr)
	if err != nil {
		return 0, err
	}
	defer closeAll(conns)
	d := served{w: p.w, qs: p.qs, conns: conns}
	out, err := d.run(queryOps(p.w.block, len(p.qs)), p.w.epsilon, 0)
	return median(out.lat), err
}

func (p *routedPath) layerMetrics(set func(string, float64)) {
	serveCounters(p.servers, set)
	m := p.rt.Metrics()
	if a := m.Accepted.Load(); a > 0 {
		set("router.fanout", float64(m.SubQueries.Load())/float64(a))
	}
	set("router.failovers", float64(m.Failovers.Load()))
	set("router.shard_errors", float64(m.ShardErrors.Load()))
	var sub obs.Hist
	for i := range m.Shards {
		sub.Merge(&m.Shards[i].Lat)
	}
	set("router.subquery_mean_us", sub.Mean())
}

func (p *routedPath) close() error {
	closeAll(p.conns)
	var errs []error
	for _, stop := range p.stops {
		errs = append(errs, stop())
	}
	return errors.Join(errs...)
}

// ---- mutable: one server taking writes beside reads ------------------

type mutablePath struct {
	served
	r    *runner
	srv  *serve.Server[float32]
	stop func() error
	rng  *rand.Rand
	// victims are base IDs in the order rounds delete them; nextRow is
	// the next pool row to ingest. Both only move forward, so every
	// round ingests fresh vectors and deletes live points.
	victims []int
	nextRow int
	base    int

	mu          sync.Mutex // guards what the refiner goroutine publishes
	snap        refreshOut
	refineEvals []float64
}

func openMutable(r *runner, in *inputs, g *knng.Graph) (queryPath, error) {
	p := &mutablePath{r: r, base: len(in.base), served: served{w: r.w, qs: in.qs, pool: in.pool}}
	end := r.tr.begin("dnnd.NewIndex")
	ix, err := dnnd.NewIndex(g, in.base, r.preset.Metric, k)
	end()
	if err != nil {
		return nil, err
	}
	end = r.tr.begin("serve.New")
	p.srv, err = serve.New(sourceOf(ix, true), serve.Config{L: r.w.l, Epsilon: r.w.epsilon})
	end()
	if err != nil {
		return nil, err
	}
	end = r.tr.begin("serve.EnableMutation")
	err = p.srv.EnableMutation(serve.MutableConfig[float32]{
		Refine: func(data [][]float32, prior *knng.Graph, dead *knng.TombSet) (*knng.Graph, error) {
			res, err := dnnd.Refresh(data, prior, dead, r.opt)
			if err != nil {
				return nil, err
			}
			p.mu.Lock()
			p.refineEvals = append(p.refineEvals, float64(res.DistEvals))
			p.mu.Unlock()
			return res.Graph, nil
		},
		// Above any round's delta, so only the blocking Flush refines and
		// its time is the whole cost of folding the round in.
		RefineEvery: 1 << 30,
		Publish: func(g *knng.Graph, data [][]float32, tombs *knng.TombSet, _ uint64) error {
			p.mu.Lock()
			p.snap.graph, p.snap.data, p.snap.tombs = g, data, tombs
			p.mu.Unlock()
			return nil
		},
	})
	end()
	if err != nil {
		return nil, err
	}
	ln, err := listen(p.srv.Serve, p.srv.Shutdown)
	if err != nil {
		return nil, err
	}
	p.stop = ln.stop
	if p.conns, err = dialAll(ln.addr); err != nil {
		p.close()
		return nil, err
	}
	p.rng = rand.New(rand.NewSource(r.seed))
	p.victims = p.rng.Perm(p.base)
	return p, nil
}

// block is one round of mixed traffic: the workload's fixed number of
// ingest batches and deletes at seeded positions among the queries.
func (p *mutablePath) block(round int) (blockOut, error) {
	defer p.r.tr.begin("serve.block")()
	ops := queryOps(p.w.block, len(p.qs))
	ingests, deletes := p.w.appendN/ingestBatch, p.w.tombN
	if p.nextRow+p.w.appendN > len(p.pool) || deletes > len(p.victims) {
		return blockOut{}, errors.New("mutable path: ingest pool or delete candidates exhausted")
	}
	for j, i := range p.rng.Perm(len(ops))[:ingests+deletes] {
		if j < ingests {
			ops[i] = op{opIngest, p.nextRow}
			p.nextRow += ingestBatch
		} else {
			ops[i] = op{opDelete, p.victims[0]}
			p.victims = p.victims[1:]
		}
	}
	return p.run(ops, p.w.epsilon, int64(round))
}

// refresh is a blocking Flush: refine the round's delta into the graph
// and swap the snapshot in under the open connections.
func (p *mutablePath) refresh() (refreshOut, error) {
	defer p.r.tr.begin("serve.Flush")()
	first := p.base + p.nextRow - p.w.appendN
	t0 := time.Now()
	up, err := p.conns[0].Flush()
	wall := time.Since(t0)
	if err != nil {
		return refreshOut{}, err
	}
	if up.Status != msg.SStatusOK {
		return refreshOut{}, fmt.Errorf("flush: status %s", msg.SStatusName(up.Status))
	}
	p.mu.Lock()
	out := p.snap
	p.mu.Unlock()
	out.wall, out.first = wall, first
	return out, nil
}

// verify queries the server after the last flush and returns the
// answers plus how many of them named a tombstoned point.
func (p *mutablePath) verify(n int, dead *knng.TombSet) (ids [][]knng.ID, tombstoned int, err error) {
	defer p.r.tr.begin("serve.verify")()
	out, err := p.run(queryOps(n, n), p.w.epsilon, 0)
	if err != nil {
		return nil, 0, err
	}
	for _, row := range out.ids[:n] {
		for _, id := range row {
			if dead.Dead(id) {
				tombstoned++
			}
		}
	}
	return out.ids[:n], tombstoned + out.failed, nil
}

func (p *mutablePath) layerMetrics(set func(string, float64)) {
	serveCounters([]*serve.Server[float32]{p.srv}, set)
	p.mu.Lock()
	set("serve.refine_evals", median(p.refineEvals))
	p.mu.Unlock()
}

func (p *mutablePath) close() error {
	closeAll(p.conns)
	return p.stop()
}
