package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnnd/internal/engine"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/metric/quant"
	"dnnd/internal/msg"
	"dnnd/internal/obs"
	"dnnd/internal/search"
	"dnnd/internal/wire"
)

// Source is the read-only index a Server answers queries against —
// the graph, its dataset, and the metric they were built with. The
// command-line server fills it from a persisted datastore
// (dnnd.LoadWithMeta); tests fill it from an in-memory build.
type Source[T wire.Scalar] struct {
	Graph   *knng.Graph
	Data    [][]T
	Dist    metric.Func[T]
	Metric  string
	K       int
	Refined bool
	// Quant, when non-nil, routes queries through the quantized
	// first-pass traversal (code-distance scoring + exact re-rank of
	// the over-fetched candidates; see search.QueryQuant). Build one
	// with quant.NewView over Data. L2-family metrics only.
	Quant *quant.View
}

// Config tunes the request scheduler. The zero value of every field
// selects a production-reasonable default (see New).
type Config struct {
	// L and Epsilon are the search defaults for queries that do not
	// specify their own (defaults 10 and 0.1).
	L       int
	Epsilon float64
	// QueueDepth bounds the admission queue; a query arriving at a
	// full queue is rejected immediately with SStatusOverloaded
	// (default 1024). This is the backpressure signal: clients seeing
	// overload rejections must slow down.
	QueueDepth int
	// BatchMax caps the number of queued queries coalesced into one
	// micro-batch (default 16).
	BatchMax int
	// BatchWait is the optional assembly window: after taking the
	// first query of a batch and greedily draining whatever else is
	// queued, the lane waits up to BatchWait for the batch to fill.
	// The default of 0 is purely dynamic batching — batch size tracks
	// queue depth with zero added latency when idle.
	BatchWait time.Duration
	// Lanes is the number of independent dispatch lanes. Each lane owns
	// a shard of the admission queue, its own micro-batch assembly loop,
	// its own engine.Pool, and one pooled search.Context per pool
	// worker, so batch formation and execution never serialize across
	// lanes (default 2).
	Lanes int
	// Workers is the per-lane worker-pool width used to evaluate a
	// batch's queries in parallel (default GOMAXPROCS/Lanes, min 1),
	// reusing internal/engine's pool. Total search parallelism is
	// Lanes × Workers.
	Workers int
	// DefaultDeadline applies to queries that do not carry their own
	// (0 = no deadline). MaxDeadline caps client-requested deadlines
	// (0 = uncapped). A query whose deadline expires while queued is
	// dropped with SStatusDeadline; one that expires mid-traversal
	// returns its best-so-far results with SStatusPartial.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// WarmEntries is the capacity of the warm entry-point cache fed by
	// recent query results and served to queries that set SFlagWarm
	// (0 disables the cache).
	WarmEntries int
	// WriteTimeout bounds each reply write (default 30s; negative
	// disables), so a client that stops reading cannot wedge a lane —
	// or a drain — behind a full TCP send buffer.
	WriteTimeout time.Duration
	// Trace, when non-nil, receives the server's span timeline:
	// "serve.query" async spans covering each admitted request from
	// admission to reply (async because requests overlap freely across
	// lanes) and a "serve.inflight" counter track. A nil Track costs
	// one nil check per request.
	Trace *obs.Track
	// Tracer, when non-nil, additionally gives every lane its own
	// "serve.laneN" track recording one "serve.batch" span per executed
	// micro-batch (argument = live batch size), so per-lane utilization
	// and batch shapes are visible on the trace timeline.
	Tracer *obs.Tracer
	// execHook, when non-nil, runs at the start of every batch
	// execution. Tests use it to stall the executors and force
	// deterministic queue overflow; it is deliberately unexported.
	execHook func()
}

func (c Config) withDefaults() Config {
	if c.L <= 0 {
		c.L = 10
	}
	if c.Epsilon < 0 {
		c.Epsilon = 0
	} else if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.Lanes <= 0 {
		c.Lanes = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / c.Lanes
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	} else if c.WriteTimeout < 0 {
		c.WriteTimeout = 0
	}
	return c
}

// snapshot is one immutable published version of the served index. The
// server holds the current one behind an atomic pointer; queries pin
// it once per batch and never observe a torn mix of graph, dataset,
// and tombstones. Snapshots are never mutated after publication —
// except tombs, whose bit-set operations are individually atomic by
// design so deletes become visible to in-flight readers immediately.
// Old snapshots are reclaimed by the garbage collector once the last
// pinned batch drops its pointer (RCU with the GC as the grace period).
type snapshot[T wire.Scalar] struct {
	graph *knng.Graph
	data  [][]T
	tombs *knng.TombSet // nil on frozen (immutable) servers
	quant *quant.View
	gen   uint64
}

// request is one admitted query flowing through the scheduler.
// Requests are pooled (getRequest/putRequest): vec is the request's
// own reusable storage (the borrowed decode buffer is copied into it,
// because the reader loop overwrites the frame buffer while the
// request waits in a lane queue), and res is filled in place by the
// lane worker so the reply needs no per-query allocation either.
type request[T wire.Scalar] struct {
	conn     *Conn
	id       uint64
	seed     int64
	l        int
	eps      float64
	warm     bool
	vec      []T
	deadline time.Time // zero = none
	enq      time.Time
	span     obs.Span    // serve.query async span, ended by finish
	tctx     msg.STrace  // propagated trace context (zero when untraced)
	res      msg.SResult // reply under construction, encoded by finish
}

// Server is a long-lived query server over one index. Create with
// New, run with Serve, stop with Shutdown.
type Server[T wire.Scalar] struct {
	cfg  Config
	src  Source[T]
	dim  int
	elem string

	// cur is the currently published index snapshot. The hot path only
	// ever Loads it (once per batch); publication is a single Store in
	// the refiner (see mutable.go), so queries concurrent with a swap
	// run to completion against whichever complete version they pinned.
	cur atomic.Pointer[snapshot[T]]
	mut *mutable[T] // nil until EnableMutation

	m    *Metrics
	warm *warmCache

	lanes   []*lane[T]
	rr      atomic.Uint32 // round-robin admission cursor
	reqPool sync.Pool     // recycled *request[T]

	acc      *Acceptor      // listener, connections and drain gate (conn.go)
	stop     chan struct{}  // closed after the lane queues fully drain
	loopWG   sync.WaitGroup // lane loops
	shutOnce sync.Once
}

// New builds a Server over src. It validates the source and spins up
// the dispatch lanes (each with its own queue shard, worker pool, and
// pooled search contexts); the server starts accepting connections
// when Serve is called.
func New[T wire.Scalar](src Source[T], cfg Config) (*Server[T], error) {
	if src.Graph == nil || src.Dist == nil {
		return nil, errors.New("serve: Source needs a Graph and a Dist")
	}
	if src.Graph.NumVertices() != len(src.Data) {
		return nil, fmt.Errorf("serve: graph has %d vertices but dataset has %d rows",
			src.Graph.NumVertices(), len(src.Data))
	}
	if len(src.Data) == 0 {
		return nil, errors.New("serve: empty dataset")
	}
	cfg = cfg.withDefaults()
	s := &Server[T]{
		cfg:  cfg,
		src:  src,
		dim:  len(src.Data[0]),
		elem: wire.ElemName[T](),
		m:    &Metrics{},
		stop: make(chan struct{}),
	}
	s.acc = NewAcceptor(cfg.WriteTimeout, &s.m.Conns, &s.m.ConnsTotal)
	s.cur.Store(&snapshot[T]{graph: src.Graph, data: src.Data, quant: src.Quant})
	// The admission queue is sharded across lanes; QueueDepth splits
	// evenly (min 1 per lane) so the configured bound keeps its meaning.
	laneDepth := cfg.QueueDepth / cfg.Lanes
	if laneDepth < 1 {
		laneDepth = 1
	}
	s.m.QueueCap = laneDepth * cfg.Lanes
	s.m.QueueDepth = s.queueLen
	s.m.Lanes = make([]LaneStat, cfg.Lanes)
	if cfg.WarmEntries > 0 {
		s.warm = newWarmCache(cfg.WarmEntries)
		s.m.WarmCacheSize = s.warm.size
	}
	s.lanes = make([]*lane[T], cfg.Lanes)
	for i := range s.lanes {
		ln := &lane[T]{
			queue: make(chan *request[T], laneDepth),
			pool:  engine.NewPool(engine.PoolConfig[T]{Workers: cfg.Workers, Dim: s.dim}),
			sctx:  make([]*search.Context[T], cfg.Workers),
			batch: make([]*request[T], 0, cfg.BatchMax),
			stat:  &s.m.Lanes[i],
		}
		for w := range ln.sctx {
			ln.sctx[w] = search.NewContext[T]()
		}
		q := ln.queue
		ln.stat.Depth = func() int { return len(q) }
		// Bound once so batch execution never allocates a closure: the
		// body reads the lane's current batch through mutable fields,
		// the same trick search.Context plays with its score closures.
		ln.runBody = func(w, i int) { s.runOne(ln.sctx[w], ln.live[i], ln.warmSnap, ln.snap) }
		if cfg.Tracer != nil {
			ln.track = cfg.Tracer.Track(fmt.Sprintf("serve.lane%d", i), 1+i)
		}
		s.lanes[i] = ln
		s.loopWG.Add(1)
		go s.laneLoop(ln)
	}
	return s, nil
}

// queueLen sums the lane queue depths (the instantaneous admission
// backlog gauge).
func (s *Server[T]) queueLen() int {
	n := 0
	for _, ln := range s.lanes {
		n += len(ln.queue)
	}
	return n
}

// getRequest takes a recycled request or allocates the pool's first.
func (s *Server[T]) getRequest() *request[T] {
	if r, ok := s.reqPool.Get().(*request[T]); ok {
		return r
	}
	return &request[T]{}
}

// putRequest recycles a finished (or rejected) request. References
// into connection state and search scratch are dropped so the pool
// never pins them; vec keeps its capacity for the next query.
func (s *Server[T]) putRequest(r *request[T]) {
	r.conn = nil
	r.span = obs.Span{}
	r.tctx = msg.STrace{}
	r.res.Neighbors = nil
	s.reqPool.Put(r)
}

// echoTrace stamps the reply's trace echo: the client's trace ID back,
// plus this server's serve.query span ID so the router (or tracecheck
// -merge) can stitch the cross-process parent edge. On an untraced
// server the span ID is simply 0 — the echo still confirms the trace
// ID reached the shard. A request without a trace context leaves the
// reply on the pre-PR-10 layout entirely.
func (r *request[T]) echoTrace() {
	if r.tctx.TraceID == 0 {
		return
	}
	r.res.Trace = msg.STrace{
		TraceID: r.tctx.TraceID,
		SpanID:  r.span.TraceCtx().SpanID,
		Sampled: r.tctx.Sampled,
	}
}

// Metrics exposes the server's observability surface.
func (s *Server[T]) Metrics() *Metrics { return s.m }

// Serve accepts connections on ln until Shutdown closes it. It
// returns nil on a clean shutdown.
func (s *Server[T]) Serve(ln net.Listener) error {
	return s.acc.Serve(ln, s.handleConn)
}

// handleConn is the per-connection reader loop.
func (s *Server[T]) handleConn(sc *Conn) {
	var (
		w       wire.Writer
		q       msg.SQuery[T] // reused query decode target
		scratch []T           // borrowed-vector decode scratch (wide scalars)
	)
	for {
		op, payload, err := sc.ReadFrame()
		if err != nil {
			return // EOF, client reset, or garbage framing: drop the conn
		}
		switch op {
		case msg.SOpHello:
			s.m.Hellos.Add(1)
			reply := msg.SHelloReply{
				Elem:           s.elem,
				Metric:         s.src.Metric,
				N:              uint32(len(s.cur.Load().data)),
				Dim:            uint32(s.dim),
				K:              uint32(s.src.K),
				Refined:        s.src.Refined,
				DefaultL:       uint32(s.cfg.L),
				DefaultEpsilon: float32(s.cfg.Epsilon),
			}
			w.Reset()
			reply.Encode(&w)
			if sc.WriteFrame(msg.SOpHello, w.Bytes()) != nil {
				return
			}
		case msg.SOpHealth:
			s.m.HealthProbes.Add(1)
			if sc.WriteFrame(msg.SOpHealth, []byte(s.healthText())) != nil {
				return
			}
		case msg.SOpStats:
			s.m.StatsDumps.Add(1)
			if sc.WriteFrame(msg.SOpStats, []byte(s.m.Dump())) != nil {
				return
			}
		case msg.SOpMetrics:
			s.m.StatsDumps.Add(1)
			dump, err := json.Marshal(s.m.Registry().FullDump())
			if err != nil {
				return
			}
			if sc.WriteFrame(msg.SOpMetrics, dump) != nil {
				return
			}
		case msg.SOpQuery:
			if !s.handleQuery(sc, payload, &q, &scratch) {
				return
			}
		case msg.SOpIngest, msg.SOpDelete, msg.SOpFlush:
			if !s.handleMutation(sc, op, payload, &w) {
				return
			}
		default:
			return // unknown op: protocol error, drop the conn
		}
	}
}

// handleQuery decodes and admits one query; it reports whether the
// connection is still usable. q and scratch are the connection's
// reused decode state: the decoded vector borrows the frame buffer
// (or scratch) and is copied into the pooled request's own storage,
// since the reader overwrites the frame buffer while the request
// waits in a lane queue.
func (s *Server[T]) handleQuery(sc *Conn, payload []byte, q *msg.SQuery[T], scratch *[]T) bool {
	r := wire.NewReader(payload)
	*scratch = q.DecodeBorrow(r, *scratch)
	if r.Finish() != nil || len(q.Vec) != s.dim || int64(q.L) > int64(len(s.cur.Load().data)) {
		s.m.RejectedBad.Add(1)
		return s.reject(sc, q.ID, msg.SStatusBadRequest)
	}
	now := time.Now()
	req := s.getRequest()
	req.conn = sc
	req.id = q.ID
	req.seed = q.Seed
	req.l = int(q.L)
	req.eps = float64(q.Epsilon)
	req.warm = q.Flags&msg.SFlagWarm != 0 && s.warm != nil
	req.vec = append(req.vec[:0], q.Vec...)
	req.deadline = time.Time{}
	req.enq = now
	req.tctx = q.Trace
	if req.l == 0 {
		req.l = s.cfg.L
	}
	if q.Epsilon == 0 {
		req.eps = s.cfg.Epsilon
	}
	dl := s.cfg.DefaultDeadline
	if q.DeadlineMicros > 0 {
		dl = time.Duration(q.DeadlineMicros) * time.Microsecond
		if s.cfg.MaxDeadline > 0 && dl > s.cfg.MaxDeadline {
			dl = s.cfg.MaxDeadline
		}
	}
	if dl > 0 {
		req.deadline = now.Add(dl)
	}

	// Admission. The gate makes the draining check and the in-flight
	// increment one atomic step: a request it admits is guaranteed to
	// be waited for by a concurrent drain (see Shutdown), so an
	// admitted query is never dropped.
	if !s.acc.Gate.Enter() {
		s.putRequest(req)
		s.m.RejectedDraining.Add(1)
		return s.reject(sc, q.ID, msg.SStatusDraining)
	}
	// The span must be attached before the enqueue: once the request
	// is on a lane queue a worker may finish (and End the span) at any
	// moment. A span that is never Ended (the overload branch) records
	// nothing. A sampled propagated context opens the span under the
	// remote parent (the router's per-replica attempt span), stitching
	// this process into the distributed trace; everything else keeps
	// the local async span.
	if req.tctx.TraceID != 0 && req.tctx.Sampled {
		req.span = s.cfg.Trace.BeginTraced("serve.query",
			obs.TraceCtx{TraceID: req.tctx.TraceID, SpanID: req.tctx.SpanID, Sampled: true})
	} else {
		req.span = s.cfg.Trace.BeginAsync("serve.query", int64(req.id))
	}
	// Sharded admission: start at the round-robin lane, then sweep the
	// others, so one hot lane spills before anything is rejected.
	// Overload means every lane's shard is full.
	li := int(s.rr.Add(1)-1) % len(s.lanes)
	for k := 0; k < len(s.lanes); k++ {
		select {
		case s.lanes[(li+k)%len(s.lanes)].queue <- req:
			s.m.Accepted.Add(1)
			s.cfg.Trace.Counter("serve.inflight", s.m.InFlight.Add(1))
			if d := int64(s.queueLen()); d > s.m.QueueMax.Load() {
				s.m.QueueMax.Store(d) // racy max: close enough for a gauge
			}
			return true
		default:
		}
	}
	// Every lane full: typed overload rejection, never a block and
	// never silence. The client reads this as backpressure.
	s.acc.Gate.Leave()
	s.putRequest(req)
	s.m.RejectedOverload.Add(1)
	return s.reject(sc, q.ID, msg.SStatusOverloaded)
}

// reject writes an immediate no-result reply; it reports whether the
// connection survived the write.
func (s *Server[T]) reject(sc *Conn, id uint64, status uint8) bool {
	res := msg.SResult{ID: id, Status: status}
	return sc.WriteResult(msg.SOpQuery, &res) == nil
}

func (s *Server[T]) healthText() string {
	state := "ok"
	if s.acc.Gate.Draining() {
		state = "draining"
	}
	sn := s.cur.Load()
	mode := "frozen"
	if s.mut != nil {
		mode = "mutable"
	}
	// now= is the server's wall clock at reply time: one half of the
	// NTP-style offset estimate the router keeps per replica (probe
	// RTT midpoint vs reported remote time). Unknown keys are ignored
	// by older parsers, so the health line stays forward-compatible.
	return fmt.Sprintf("%s n=%d dim=%d elem=%s metric=%s lanes=%d inflight=%d queue=%d/%d mode=%s gen=%d now=%d\n",
		state, len(sn.data), s.dim, s.elem, s.src.Metric, len(s.lanes),
		s.m.InFlight.Load(), s.queueLen(), s.m.QueueCap, mode, sn.gen, time.Now().UnixNano())
}

// Shutdown gracefully drains the server (the SIGTERM path): stop
// accepting connections, reject new queries with SStatusDraining,
// wait until every admitted query has been answered, then stop the
// scheduler and close all connections. Zero admitted requests are
// dropped. ctx bounds the wait; on expiry the server stops hard and
// ctx.Err() is returned.
func (s *Server[T]) Shutdown(ctx context.Context) error {
	var err error
	s.shutOnce.Do(func() {
		err = s.acc.Drain(ctx)

		// The lane queues are empty now (or we gave up waiting): stop
		// the lane loops, then their worker pools.
		close(s.stop)
		s.loopWG.Wait()
		for _, ln := range s.lanes {
			ln.pool.Shutdown()
		}
		// Stop the refiner (if any). New mutations were already being
		// rejected with SStatusDraining once the gate flipped; a
		// refinement in progress runs to completion and publishes.
		if s.mut != nil {
			s.mut.stopRefiner()
		}

		// Finally drop the client connections; their readers exit.
		s.acc.CloseAll()
	})
	return err
}
