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

	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/msg"
	"dnnd/internal/obs"
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
	// Workers is the number of concurrent query searches: that many
	// goroutines drain the admission queue, each running one query at
	// a time on its own pooled search.Context (0 = GOMAXPROCS).
	Workers int
	// DefaultDeadline applies to queries that do not carry their own
	// (0 = no deadline). MaxDeadline caps client-requested deadlines
	// (0 = uncapped). A query whose deadline expires while queued is
	// dropped with SStatusDeadline; one that expires mid-traversal
	// returns its best-so-far results with SStatusPartial.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// WriteTimeout bounds each reply write (default 30s; negative
	// disables), so a client that stops reading cannot wedge a worker
	// — or a drain — behind a full TCP send buffer.
	WriteTimeout time.Duration
	// Trace, when non-nil, receives the server's span timeline:
	// "serve.query" async spans covering each admitted request from
	// admission to reply (async because requests overlap freely across
	// workers) and a "serve.inflight" counter track. A nil Track costs
	// one nil check per request.
	Trace *obs.Track
	// execHook, when non-nil, runs on a worker after it takes a request
	// and before it executes it. Tests use it to stall the workers and
	// force deterministic queue overflow; it is deliberately unexported.
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
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
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
// it once each and never observe a torn mix of graph, dataset,
// and tombstones. Snapshots are never mutated after publication —
// except tombs, whose bit-set operations are individually atomic by
// design so deletes become visible to in-flight readers immediately.
// Old snapshots are reclaimed by the garbage collector once the last
// query pinning one drops its pointer (RCU with the GC as the grace
// period).
type snapshot[T wire.Scalar] struct {
	graph *knng.Graph
	data  [][]T
	tombs *knng.TombSet // nil on frozen (immutable) servers
	gen   uint64
}

// request is one admitted query flowing through the scheduler.
// Requests are pooled (getRequest/putRequest): vec is the request's
// own reusable storage (the borrowed decode buffer is copied into it,
// because the reader loop overwrites the frame buffer while the
// request waits in the admission queue), and res is filled in place by
// the worker so the reply needs no per-query allocation either.
type request[T wire.Scalar] struct {
	conn     *Conn
	id       uint64
	seed     int64
	l        int
	eps      float64
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
	// ever Loads it (once per query); publication is a single Store in
	// the refiner (see mutable.go), so queries concurrent with a swap
	// run to completion against whichever complete version they pinned.
	cur atomic.Pointer[snapshot[T]]
	mut *mutable[T] // nil until EnableMutation

	m *Metrics

	queue   chan *request[T] // bounded admission queue (QueueDepth)
	reqPool sync.Pool        // recycled *request[T]

	acc      *Acceptor      // listener, connections and drain gate (conn.go)
	stop     chan struct{}  // closed by Shutdown once the drain ends
	loopWG   sync.WaitGroup // workers
	shutOnce sync.Once
}

// New builds a Server over src. It validates the source and starts
// the Workers goroutines that drain the admission queue; the server
// starts accepting connections when Serve is called.
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
	s.cur.Store(&snapshot[T]{graph: src.Graph, data: src.Data})
	s.queue = make(chan *request[T], cfg.QueueDepth)
	s.m.QueueCap = cfg.QueueDepth
	s.m.QueueDepth = func() int { return len(s.queue) }
	for i := 0; i < cfg.Workers; i++ {
		s.loopWG.Add(1)
		go s.runWorker()
	}
	return s, nil
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
			if sc.WriteMsg(msg.SOpHello, &reply) != nil {
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
			if !s.handleMutation(sc, op, payload) {
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
// waits in the admission queue.
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
	// is on the queue a worker may finish (and End the span) at any
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
	select {
	case s.queue <- req:
		s.m.Accepted.Add(1)
		s.cfg.Trace.Counter("serve.inflight", s.m.InFlight.Add(1))
		if d := int64(len(s.queue)); d > s.m.QueueMax.Load() {
			s.m.QueueMax.Store(d) // racy max: close enough for a gauge
		}
		return true
	default:
	}
	// Queue full: typed overload rejection, never a block and never
	// silence. The client reads this as backpressure.
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
	return fmt.Sprintf("%s n=%d dim=%d elem=%s metric=%s workers=%d inflight=%d queue=%d/%d mode=%s gen=%d now=%d\n",
		state, len(sn.data), s.dim, s.elem, s.src.Metric, s.cfg.Workers,
		s.m.InFlight.Load(), len(s.queue), s.m.QueueCap, mode, sn.gen, time.Now().UnixNano())
}

// Shutdown gracefully drains the server (the SIGTERM path): stop
// accepting connections, reject new queries with SStatusDraining,
// wait until every admitted query has been answered, then stop the
// workers and close all connections. Zero admitted requests are
// dropped. ctx bounds the wait; on expiry the server stops hard —
// queries a worker holds finish, queries still queued are answered
// SStatusDraining — and ctx.Err() is returned.
func (s *Server[T]) Shutdown(ctx context.Context) error {
	var err error
	s.shutOnce.Do(func() {
		err = s.acc.Drain(ctx)

		// The queue is empty now, or we gave up waiting: stop the
		// workers, then answer whatever they left queued, so every
		// admitted request still gets its one reply and leaves the gate.
		close(s.stop)
		s.loopWG.Wait()
		for len(s.queue) > 0 {
			r := <-s.queue
			r.res = msg.SResult{ID: r.id, Status: msg.SStatusDraining}
			r.echoTrace()
			s.finish(r)
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
