package router

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dnnd/internal/knng"
	"dnnd/internal/msg"
	"dnnd/internal/obs"
	"dnnd/internal/serve"
	"dnnd/internal/wire"
)

// Config tunes the router. The zero value of every field selects a
// production-reasonable default (see withDefaults).
type Config struct {
	// L and Epsilon are the defaults the router advertises in its hello
	// reply (defaults 10 and 0.1, matching a default dnnd-serve). They
	// shape nothing server-side: queries are forwarded with their L and
	// Epsilon untouched, so each shard applies its own defaults; the
	// advertised L only bounds how far the router truncates the merged
	// list for queries that did not set their own.
	L       int
	Epsilon float64
	// MaxInFlight bounds admitted-but-unanswered client queries; beyond
	// it the router rejects with SStatusOverloaded (default 1024). This
	// is the router's own backpressure on top of the per-shard one.
	MaxInFlight int
	// ShardTimeout bounds one shard's sub-query when the client set no
	// deadline (default 5s). A sub-query still unanswered past it is
	// abandoned and its replica demoted — the slow-equals-dead policy
	// that keeps one wedged backend from wedging the cluster.
	ShardTimeout time.Duration
	// DialTimeout bounds replica dials and health probes (default 2s).
	DialTimeout time.Duration
	// ProbeInterval is the per-replica health probe period (default
	// 500ms; negative disables probing entirely — unit tests drive
	// probeOnce by hand).
	ProbeInterval time.Duration
	// Retries caps failover attempts per shard per query beyond the
	// first (default 3; attempts never exceed the replica count).
	Retries int
	// WriteTimeout bounds each client reply write (default 30s;
	// negative disables), exactly like the serve server's.
	WriteTimeout time.Duration
	// Trace, when non-nil, receives the router's span timeline: a
	// "router.inflight" counter track plus, when the tracer is enabled,
	// distributed "router.query" spans covering each admitted query —
	// with "router.scatter" children per shard, "router.attempt" /
	// "router.retry" children per replica attempt, "router.watchdog"
	// markers on watchdog fires, and a "router.merge" child around the
	// gather's merge+reply. A traced query's sub-queries carry the trace
	// context on the wire (SFlagTrace), so a tracing shard parents its
	// serve.query span under the router's attempt span; the client's
	// own sampled context, when present, is adopted as the trace root.
	// With a nil Trace (or a disabled tracer) queries carrying a trace
	// context are forwarded byte-for-byte unchanged.
	Trace *obs.Track
	// SlowLog bounds the slow-query log: the SlowLog slowest queries
	// (by total latency, admission to reply) are kept with per-shard
	// latency breakdowns and trace IDs. Default 32; negative disables.
	SlowLog int
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
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	} else if c.WriteTimeout < 0 {
		c.WriteTimeout = 0
	}
	if c.SlowLog == 0 {
		c.SlowLog = 32
	} else if c.SlowLog < 0 {
		c.SlowLog = 0
	}
	return c
}

// deadlineGrace is how long past a client deadline the gather keeps
// waiting for shard replies: shards answer deadline-expired queries
// with partial results at the deadline, and those replies still need
// a network hop to arrive.
const deadlineGrace = 25 * time.Millisecond

// Query header layout inside an SQuery payload (everything before the
// length-prefixed vector): ID u64, Seed i64, L u32, Epsilon f32,
// DeadlineMicros u32, Flags u8. The router rewrites the ID per
// sub-query and clamps L per shard by patching these offsets in place,
// never re-encoding the vector.
const (
	qOffID    = 0
	qOffL     = 16
	qOffFlags = 28
)

// shardGroup is one shard's replica set plus its round-robin cursor.
type shardGroup struct {
	idx      int
	replicas []*replica
	rr       atomic.Uint32
}

// shardOutcome is the result of one shard's scatter leg: a reply with
// results, or the status explaining why there is none, plus the
// latency breakdown the slow-query log records.
type shardOutcome struct {
	shard    int
	status   uint8
	res      *msg.SResult // non-nil only for ok/partial
	attempts int
	micros   int64
	replica  string // answering (or last-tried) replica address
}

// Router is the cluster front end. Create with New, run with Serve,
// stop with Shutdown.
type Router struct {
	cfg      Config
	man      *Manifest
	elemSize int
	shards   []*shardGroup
	m        *Metrics
	slow     *slowLog

	subID atomic.Uint64 // sub-query ID counter, unique per backend connection's lifetime

	acc       *serve.Acceptor // listener, client connections and drain gate
	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	shutOnce  sync.Once
}

// New builds a Router over a validated manifest and one replica
// address group per shard. Probing starts immediately (all replicas
// begin live — routable until a probe or a query says otherwise), and
// the router serves clients once Serve is called.
func New(man *Manifest, shardAddrs [][]string, cfg Config) (*Router, error) {
	if man == nil {
		return nil, errors.New("router: nil manifest")
	}
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if len(shardAddrs) != len(man.Shards) {
		return nil, fmt.Errorf("router: manifest has %d shards but %d replica groups were given",
			len(man.Shards), len(shardAddrs))
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:       cfg,
		man:       man,
		elemSize:  man.ElemSize(),
		m:         &Metrics{Shards: make([]ShardStat, len(man.Shards))},
		slow:      newSlowLog(cfg.SlowLog),
		stopProbe: make(chan struct{}),
	}
	rt.acc = serve.NewAcceptor(cfg.WriteTimeout, &rt.m.Conns, &rt.m.ConnsTotal)
	for i, addrs := range shardAddrs {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", i)
		}
		sg := &shardGroup{idx: i}
		for _, addr := range addrs {
			rp := &replica{addr: addr, shard: i, dialTimeout: cfg.DialTimeout}
			sg.replicas = append(sg.replicas, rp)
			rt.m.replicaViews = append(rt.m.replicaViews, replicaView{
				shard: i, addr: addr, state: rp.curState, gen: rp.gen.Load,
				clockOff: rp.clockOff.Load, rtt: rp.minRTT.Load,
			})
		}
		rt.shards = append(rt.shards, sg)
	}
	if cfg.ProbeInterval > 0 {
		for _, sg := range rt.shards {
			for _, rp := range sg.replicas {
				rt.probeWG.Add(1)
				go rt.prober(rp)
			}
		}
	}
	return rt, nil
}

// Metrics exposes the router's observability surface.
func (rt *Router) Metrics() *Metrics { return rt.m }

// SlowQueries snapshots the slow-query log, slowest first.
func (rt *Router) SlowQueries() []SlowQuery { return rt.slow.Snapshot() }

// Topology snapshots the router's current view of every shard and
// replica (the SOpTopo reply).
func (rt *Router) Topology() *msg.RTopology {
	t := &msg.RTopology{Shards: make([]msg.RShard, len(rt.shards))}
	for i, sg := range rt.shards {
		sh := msg.RShard{Count: rt.man.Shards[i].Count}
		for _, rp := range sg.replicas {
			sh.Replicas = append(sh.Replicas, msg.RReplica{
				Addr: rp.addr, State: rp.curState(), Gen: rp.gen.Load(),
			})
		}
		t.Shards[i] = sh
	}
	return t
}

// Serve accepts client connections on ln until Shutdown closes it. It
// returns nil on a clean shutdown.
func (rt *Router) Serve(ln net.Listener) error {
	return rt.acc.Serve(ln, rt.handleConn)
}

// handleConn is the per-connection reader loop.
func (rt *Router) handleConn(sc *serve.Conn) {
	for {
		op, payload, err := sc.ReadFrame()
		if err != nil {
			return
		}
		switch op {
		case msg.SOpHello:
			rt.m.Hellos.Add(1)
			reply := msg.SHelloReply{
				Elem:           rt.man.Elem,
				Metric:         rt.man.Metric,
				N:              rt.man.N,
				Dim:            rt.man.Dim,
				K:              rt.man.K,
				Refined:        rt.man.Refined,
				DefaultL:       uint32(rt.cfg.L),
				DefaultEpsilon: float32(rt.cfg.Epsilon),
			}
			if sc.WriteMsg(msg.SOpHello, &reply) != nil {
				return
			}
		case msg.SOpHealth:
			rt.m.HealthProbes.Add(1)
			if sc.WriteFrame(msg.SOpHealth, []byte(rt.healthText())) != nil {
				return
			}
		case msg.SOpStats:
			rt.m.StatsDumps.Add(1)
			if sc.WriteFrame(msg.SOpStats, []byte(rt.m.Dump())) != nil {
				return
			}
		case msg.SOpTopo:
			rt.m.TopoDumps.Add(1)
			if sc.WriteMsg(msg.SOpTopo, rt.Topology()) != nil {
				return
			}
		case msg.SOpQuery:
			if !rt.handleQuery(sc, payload) {
				return
			}
		case msg.SOpIngest, msg.SOpDelete, msg.SOpFlush:
			// The router is a read-only front end: mutations go to the
			// shard owners directly, not through the scatter path.
			var id uint64
			if len(payload) >= 8 {
				id = binary.LittleEndian.Uint64(payload[:8])
			}
			up := msg.SUpdateReply{ID: id, Status: msg.SStatusReadOnly}
			if sc.WriteMsg(op, &up) != nil {
				return
			}
		default:
			return // unknown op: protocol error, drop the conn
		}
	}
}

func (rt *Router) healthText() string {
	state := "ok"
	if rt.acc.Gate.Draining() {
		state = "draining"
	}
	live, total := 0, 0
	var gen uint64
	for _, sg := range rt.shards {
		for _, rp := range sg.replicas {
			total++
			if rp.curState() == msg.RStateLive {
				live++
			}
			if g := rp.gen.Load(); g > gen {
				gen = g
			}
		}
	}
	return fmt.Sprintf("%s n=%d dim=%d elem=%s metric=%s shards=%d replicas=%d/%d inflight=%d mode=router gen=%d\n",
		state, rt.man.N, rt.man.Dim, rt.man.Elem, rt.man.Metric,
		len(rt.shards), live, total, rt.m.InFlight.Load(), gen)
}

// handleQuery validates and admits one client query; it reports
// whether the connection is still usable. Validation never decodes the
// vector: the manifest says how many elements of what size to expect,
// and the bytes are forwarded opaquely.
func (rt *Router) handleQuery(sc *serve.Conn, payload []byte) bool {
	r := wire.NewReader(payload)
	id := r.Uint64()
	_ = r.Int64() // seed: forwarded untouched
	l := r.Uint32()
	_ = r.Float32() // epsilon: forwarded untouched
	dlMicros := r.Uint32()
	flags := r.Uint8()
	n := r.Count(rt.elemSize)
	want := n * rt.elemSize
	if flags&msg.SFlagTrace != 0 {
		want += msg.STraceBytes
	}
	if r.Err() != nil || n != int(rt.man.Dim) ||
		r.Remaining() != want || int64(l) > int64(rt.man.N) {
		rt.m.RejectedBad.Add(1)
		return rt.reject(sc, id, msg.SStatusBadRequest)
	}
	if !rt.acc.Gate.Enter() {
		rt.m.RejectedDraining.Add(1)
		return rt.reject(sc, id, msg.SStatusDraining)
	}
	if rt.m.InFlight.Add(1) > int64(rt.cfg.MaxInFlight) {
		rt.m.InFlight.Add(-1)
		rt.acc.Gate.Leave()
		rt.m.RejectedOverload.Add(1)
		return rt.reject(sc, id, msg.SStatusOverloaded)
	}
	rt.cfg.Trace.Counter("router.inflight", rt.m.InFlight.Load())
	rt.m.Accepted.Add(1)
	var deadline time.Time
	now := time.Now()
	if dlMicros > 0 {
		deadline = now.Add(time.Duration(dlMicros) * time.Microsecond)
	}
	// The reader loop reuses the frame buffer, so the query gets its
	// own copy before the scatter goroutines take over.
	own := make([]byte, len(payload))
	copy(own, payload)
	// Trace root: adopt the client's sampled context when it sent one
	// (the client's trace ID becomes the timeline's join key), else
	// stamp a fresh trace. A disabled tracer falls back to the local
	// async span and forwards any client context untouched.
	var clientTC msg.STrace
	var clientCtx obs.TraceCtx
	if flags&msg.SFlagTrace != 0 {
		clientTC = msg.ReadSTraceTail(own)
		if clientTC.TraceID != 0 && clientTC.Sampled {
			clientCtx = obs.TraceCtx{TraceID: clientTC.TraceID, SpanID: clientTC.SpanID, Sampled: true}
		}
	}
	span := rt.cfg.Trace.BeginTraced("router.query", clientCtx)
	if !span.TraceCtx().Valid() {
		span = rt.cfg.Trace.BeginAsync("router.query", int64(id))
	}
	go rt.serveQuery(sc, own, id, l, deadline, now, span, clientTC)
	return true
}

func (rt *Router) reject(sc *serve.Conn, id uint64, status uint8) bool {
	res := msg.SResult{ID: id, Status: status}
	return sc.WriteResult(msg.SOpQuery, &res) == nil
}

// serveQuery is the scatter-gather core: one goroutine per shard, a
// gather loop bounded by the client deadline (plus grace) or the shard
// timeout, and a merged reply whose status tells the client exactly
// how complete the answer is.
func (rt *Router) serveQuery(sc *serve.Conn, payload []byte, id uint64, l uint32, deadline time.Time, enq time.Time, span obs.Span, clientTC msg.STrace) {
	// budget bounds each sub-query attempt; the gather timer additionally
	// covers failover: without a client deadline a shard may spend up to
	// maxAttempts × budget before giving up, and the gather must outlast
	// that or a successful failover would be thrown away as a timeout.
	// With a client deadline the deadline is the hard bound — a failover
	// finishing after it is useless, so the gather stops at the deadline
	// plus grace and replies with whatever arrived.
	budget := rt.cfg.ShardTimeout
	maxAttempts := rt.cfg.Retries + 1
	for _, sg := range rt.shards {
		if len(sg.replicas) < maxAttempts {
			maxAttempts = len(sg.replicas)
		}
	}
	gatherBound := time.Duration(maxAttempts)*budget + deadlineGrace
	if !deadline.IsZero() {
		if d := time.Until(deadline) + deadlineGrace; d < budget {
			budget = d
		}
		if budget < time.Millisecond {
			budget = time.Millisecond
		}
		gatherBound = budget + deadlineGrace
	}
	rootCtx := span.TraceCtx()
	nsh := len(rt.shards)
	ch := make(chan shardOutcome, nsh)
	for _, sg := range rt.shards {
		go func(sg *shardGroup) { ch <- rt.queryShard(sg, payload, l, budget, rootCtx) }(sg)
	}

	var (
		all        []knng.Neighbor
		distEvals  int64
		qmax, emax uint32
		counts     [8]int
		timedOut   int
		legs       []SlowShard
	)
	if rt.slow != nil {
		legs = make([]SlowShard, 0, nsh)
	}
	timer := time.NewTimer(gatherBound)
gather:
	for got := 0; got < nsh; got++ {
		select {
		case o := <-ch:
			counts[o.status%8]++
			if o.res != nil {
				distEvals += o.res.DistEvals
				if o.res.QueueMicros > qmax {
					qmax = o.res.QueueMicros
				}
				if o.res.ExecMicros > emax {
					emax = o.res.ExecMicros
				}
				all = mergeResults(all, o.res, rt.man.Shards[o.shard].Globals)
			}
			if legs != nil {
				legs = append(legs, SlowShard{
					Shard: o.shard, Status: msg.SStatusName(o.status),
					Attempts: o.attempts, Micros: o.micros, Replica: o.replica,
				})
			}
		case <-timer.C:
			timedOut = nsh - got
			break gather
		}
	}
	timer.Stop()

	okN := counts[msg.SStatusOK]
	partN := counts[msg.SStatusPartial]
	var status uint8
	switch {
	case counts[msg.SStatusOverloaded] > 0:
		// Backpressure wins: merged partial results would hide the one
		// signal the client must react to by slowing down.
		status = msg.SStatusOverloaded
		all = nil
	case okN == nsh:
		status = msg.SStatusOK
	case okN+partN > 0:
		status = msg.SStatusPartial
	case counts[msg.SStatusBadRequest] == nsh:
		status = msg.SStatusBadRequest
	case counts[msg.SStatusDeadline] > 0 || (timedOut > 0 && !deadline.IsZero()):
		status = msg.SStatusDeadline
	case counts[msg.SStatusDraining] == nsh:
		status = msg.SStatusDraining
	default:
		status = msg.SStatusUnavailable
	}

	effL := int(l)
	if effL == 0 {
		effL = rt.cfg.L
	}
	var mspan obs.Span
	if rootCtx.Valid() {
		mspan = rt.cfg.Trace.BeginTraced("router.merge", rootCtx)
	}
	res := msg.SResult{
		ID:          id,
		Status:      status,
		DistEvals:   distEvals,
		QueueMicros: qmax,
		ExecMicros:  emax,
		Neighbors:   finishMerge(all, effL),
	}
	// Reply trace echo: the effective trace ID (the client's when it
	// was adopted, the router-stamped one otherwise) plus the router's
	// root span ID — a trace-less client learns the join key for this
	// query's timeline from the reply alone.
	effTrace := clientTC.TraceID
	if rootCtx.Valid() {
		effTrace = rootCtx.TraceID
	}
	if effTrace != 0 {
		res.Trace = msg.STrace{
			TraceID: effTrace,
			SpanID:  rootCtx.SpanID,
			Sampled: clientTC.Sampled || rootCtx.Valid(),
		}
	}
	if err := sc.WriteResult(msg.SOpQuery, &res); err != nil {
		rt.m.WriteErrors.Add(1)
	}
	mspan.End()
	total := time.Since(enq)
	rt.m.LatTotal.ObserveDuration(total)
	rt.m.statusCounter(status).Add(1)
	rt.m.Completed.Add(1)
	rt.cfg.Trace.Counter("router.inflight", rt.m.InFlight.Add(-1))
	span.End()
	rt.acc.Gate.Leave()
	if us := total.Microseconds(); rt.slow.qualifies(us) {
		var hex string
		if effTrace != 0 {
			hex = fmt.Sprintf("%013x", effTrace)
		}
		rt.slow.add(SlowQuery{
			ID: id, Trace: hex, Status: msg.SStatusName(status),
			TotalMicros: us, UnixNanos: time.Now().UnixNano(), Shards: legs,
		})
	}
}

// queryShard runs one shard's scatter leg with bounded failover: live
// replicas in rotation order first, then the rest as a last resort
// (the window between a replica recovering and its next probe). The
// sub-query is the client payload with the ID rewritten and L clamped
// to the shard's point count (a search wider than the shard is the
// same search, but the backend would reject the literal value).
func (rt *Router) queryShard(sg *shardGroup, payload []byte, l uint32, budget time.Duration, parent obs.TraceCtx) shardOutcome {
	// Traced queries get a "router.scatter" span per shard; its span ID
	// is the parent of every attempt span below. An untraced router
	// (invalid parent) records nothing and forwards the payload as-is.
	var scatter obs.Span
	if parent.Valid() {
		scatter = rt.cfg.Trace.BeginTraced("router.scatter", parent)
	}
	defer scatter.End()
	sctx := scatter.TraceCtx()

	// The sub-query needs a trace tail to re-parent per attempt; append
	// one (and set the version-gate flag) only if the client didn't
	// already send one — the vector bytes stay untouched either way.
	extra := 0
	if sctx.Valid() && payload[qOffFlags]&msg.SFlagTrace == 0 {
		extra = msg.STraceBytes
	}
	sub := make([]byte, len(payload)+extra)
	copy(sub, payload)
	if extra > 0 {
		sub[qOffFlags] |= msg.SFlagTrace
	}
	if count := rt.man.Shards[sg.idx].Count; l > count {
		binary.LittleEndian.PutUint32(sub[qOffL:qOffL+4], count)
	}

	reps := sg.candidates()
	attempts := rt.cfg.Retries + 1
	if attempts > len(reps) {
		attempts = len(reps)
	}
	start := time.Now()
	draining := 0
	var lastAddr string
	for i := 0; i < attempts; i++ {
		rp := reps[i]
		lastAddr = rp.addr
		name := "router.attempt"
		if i > 0 {
			rt.m.Failovers.Add(1)
			name = "router.retry" // failover retries are their own span name
		}
		var att obs.Span
		if sctx.Valid() {
			att = rt.cfg.Trace.BeginTraced(name, sctx)
			// Re-parent the wire context on this attempt's span, in
			// place: the shard's serve.query span hangs off exactly the
			// attempt that carried it, retries included.
			msg.PutSTraceTail(sub, msg.STrace{
				TraceID: sctx.TraceID, SpanID: att.TraceCtx().SpanID, Sampled: true,
			})
		}
		pc, err := rp.client()
		if err != nil {
			att.End()
			rt.m.ShardErrors.Add(1)
			rp.demote(nil, msg.RStateDown)
			continue
		}
		sid := rt.subID.Add(1)
		binary.LittleEndian.PutUint64(sub[qOffID:qOffID+8], sid)
		rt.m.SubQueries.Add(1)
		res, err := pc.QueryRaw(sid, sub, budget)
		if errors.Is(err, serve.ErrTimeout) {
			// The watchdog: slow is handled exactly like dead. The
			// demotion below closes the connection, which fails every
			// other in-flight sub-query on the replica too.
			rt.m.ShardSlow.Add(1)
			if sctx.Valid() {
				// Zero-duration marker under the attempt span: the
				// timeline shows exactly when the router gave up.
				wd := rt.cfg.Trace.BeginTraced("router.watchdog", att.TraceCtx())
				wd.End()
			}
		}
		att.End()
		if err != nil {
			rt.m.ShardErrors.Add(1)
			rp.demote(pc, msg.RStateDown)
			continue
		}
		switch res.Status {
		case msg.SStatusOK, msg.SStatusPartial:
			rt.m.Shards[sg.idx].Queries.Add(1)
			rt.m.Shards[sg.idx].Lat.ObserveDuration(time.Since(start))
			return shardOutcome{shard: sg.idx, status: res.Status, res: res,
				attempts: i + 1, micros: time.Since(start).Microseconds(), replica: rp.addr}
		case msg.SStatusDraining:
			// Typed draining: the replica never admitted the query, so
			// retrying a sibling is always safe. Take it out of rotation
			// until a probe says otherwise, but keep its connection —
			// rolling restarts drain gracefully.
			rp.state.Store(uint32(msg.RStateDraining))
			draining++
			continue
		default:
			// Overloaded (backpressure — never amplified onto a
			// sibling), deadline, bad request: final for this shard.
			// Unknown status bytes from a confused backend normalize to
			// unavailable so they cannot alias a success status upstream.
			st := res.Status
			if st > msg.SStatusUnavailable {
				st = msg.SStatusUnavailable
			}
			rt.m.Shards[sg.idx].Misses.Add(1)
			return shardOutcome{shard: sg.idx, status: st,
				attempts: i + 1, micros: time.Since(start).Microseconds(), replica: rp.addr}
		}
	}
	rt.m.Shards[sg.idx].Misses.Add(1)
	out := shardOutcome{shard: sg.idx, status: msg.SStatusUnavailable,
		attempts: attempts, micros: time.Since(start).Microseconds(), replica: lastAddr}
	if draining > 0 && draining == attempts {
		out.status = msg.SStatusDraining
	}
	return out
}

// candidates orders the group's replicas for one scatter leg: live
// ones first, rotated by the round-robin cursor so load spreads across
// the group, then non-live ones (same rotation) as a last resort.
func (sg *shardGroup) candidates() []*replica {
	n := len(sg.replicas)
	off := int(sg.rr.Add(1)-1) % n
	out := make([]*replica, 0, n)
	for i := 0; i < n; i++ {
		rp := sg.replicas[(off+i)%n]
		if rp.curState() == msg.RStateLive {
			out = append(out, rp)
		}
	}
	for i := 0; i < n; i++ {
		rp := sg.replicas[(off+i)%n]
		if rp.curState() != msg.RStateLive {
			out = append(out, rp)
		}
	}
	return out
}

// Shutdown gracefully drains the router: stop accepting connections,
// reject new queries with SStatusDraining, wait until every admitted
// query has been answered (ctx bounds the wait), then stop the probers
// and close every backend and client connection.
func (rt *Router) Shutdown(ctx context.Context) error {
	var err error
	rt.shutOnce.Do(func() {
		err = rt.acc.Drain(ctx)

		close(rt.stopProbe)
		rt.probeWG.Wait()
		for _, sg := range rt.shards {
			for _, rp := range sg.replicas {
				rp.closeConn()
			}
		}
		rt.acc.CloseAll()
	})
	return err
}
