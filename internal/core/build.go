package core

import (
	"fmt"
	"math/rand"

	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/obs"
	"dnnd/internal/wire"
	"dnnd/internal/ygm"
)

// The construction is organized as phases, one file per phase:
//
//	phase_init.go     random initialization (Algorithm 1 lines 2-5)
//	phase_sample.go   old/new sampling + reverse-sample union (7-16)
//	phase_reverse.go  reverse matrix exchange (Section 4.2)
//	phase_checks.go   neighbor checks: co-owned pairs in place, the rest by
//	                  Type 1/2/2+/3 between ranks (Section 4.3)
//	phase_optimize.go reverse-edge merge + prune (Section 4.5)
//	phase_gather.go   final gather to rank 0
//
// seed.go is not a phase: it grows a warm build's prior over appended
// rows by searching the prior graph, before any rank starts.
//
// Wire layouts live in internal/msg. phase.go holds the Section 4.4
// batched emit loop, the per-phase clock and the message catalog;
// workpool.go holds the stage/claim/apply ring. This file owns the
// builder state, the round loop, and the apply stage that serializes
// every protocol decision onto the rank goroutine.

type builder[T wire.Scalar] struct {
	c     *ygm.Comm
	cfg   Config
	kern  metric.Kernel[T]
	shard *Shard[T]
	rng   *rand.Rand

	// Phases in execution order; handler names are qualified by them
	// (e.g. "nd.check.type2"), and catalog lists every handler they
	// registered, in registration order.
	phInit, phSample, phReverse *phase
	phChecks, phOpt, phGather   *phase
	catalog                     []MessageStat

	lists []knng.NeighborList // parallel to shard.IDs, one contiguous slab

	// Per-round state.
	olds, news [][]knng.ID       // parallel to shard.IDs
	final      [][]knng.Neighbor // post-optimization lists

	// Reverse matrices: row u lives at u's shard index, and the rows'
	// backing arrays persist across rounds.
	oldRevRows [][]knng.ID // parallel to shard.IDs
	newRevRows [][]knng.ID // parallel to shard.IDs

	// Section 4.5 reverse edges received, one row per local vertex.
	optRows [][]knng.Neighbor

	// Scratch, all reused across rounds so the steady-state descent
	// allocates nothing. visited is an epoch-stamped visited-set
	// over the global ID space (one uint32 per vertex per rank; at truly
	// massive N this wants sharding, but it is exact and O(1) per test
	// where the former map[ID]bool allocated per vertex per round).
	w, replyW    *wire.Writer  // phase-loop writer / handler-reply writer
	r            *wire.Reader  // handler decode reader (handlers never nest)
	vecScratch   []T           // wire-vector decode target (Type 2, init)
	visited      knng.VisitSet // epoch-stamped marks, lazily sized to N
	candScratch  []knng.ID     // sampleLists candidate buffer
	shufScratch  []knng.ID     // unionSample shuffle buffer
	orderScratch []int         // exchangeReverse vertex order
	norms        []float32     // kern.Norm per local vector (fused cosine)

	// byRef is set on an in-process world, where every shard was cut by
	// Partition from one shared dataset: the vector-carrying messages
	// (msg.InitReq, msg.Type2) then travel by reference. The sender
	// materializes only the message head and charges the full encoded
	// size (ygm.Comm.AsyncCharged); the receiver resolves the vector as
	// data[id], the whole dataset by global ID, and the pool aliases
	// that row instead of copying it. Every counter and the result are
	// bit-identical to the byte path a TCP world takes. data is nil on
	// the byte path.
	data  [][]T
	byRef bool

	updates   int64 // successful Updates this round (c of Algorithm 1)
	distEvals int64

	// pool is the intra-rank worker pool; handlers stage distance work
	// onto it and it applies effects in submission order on this rank's
	// goroutine.
	pool *workpool[T]

	gatherInto *knng.Graph // set on the gather root
	warm       *knng.Graph // prior graph for warm-started builds

	// dead is the frozen tombstone set of an incremental build (nil
	// otherwise). Dead vertices keep their prior lists verbatim as
	// routable stepping stones but are excluded from sampling, checks,
	// and optimize emission, and never enter a live vertex's list. The
	// set must not be mutated during the build — callers hand the
	// builder a frozen copy, and deletes arriving mid-build are folded
	// into the next refinement (the serve layer's swap re-applies them
	// to the published snapshot's live set immediately, so query
	// visibility does not wait).
	dead *knng.TombSet

	hInitReq, hInitResp    ygm.HandlerID
	hRevOld, hRevNew       ygm.HandlerID
	hType1, hType2, hType3 ygm.HandlerID
	hOptEdge, hGather      ygm.HandlerID
}

// Build runs distributed NN-Descent over the world c belongs to. Every
// rank calls Build with its shard of the dataset and the same
// configuration (SPMD). The gathered graph is returned on rank 0.
// dist's fast paths are found by metric.KernelOf.
func Build[T wire.Scalar](c *ygm.Comm, shard *Shard[T], dist metric.Func[T], cfg Config) (*Result, error) {
	return buildIncremental(c, shard, metric.KernelOf(dist), cfg, nil, nil)
}

// BuildKernel is Build taking a full metric.Kernel, enabling the
// norm-precomputed fast path when the kernel provides one.
func BuildKernel[T wire.Scalar](c *ygm.Comm, shard *Shard[T], kern metric.Kernel[T], cfg Config) (*Result, error) {
	return buildIncremental(c, shard, kern, cfg, nil, nil)
}

// buildIncremental is the one body behind Build, BuildKernel and
// BuildLocal, and the one warm start. prior, when non-nil, is an
// existing k-NNG over a prefix of the dataset (every rank passes the
// same graph): vertices it covers keep their neighbor lists with the
// prior's new/old flags (all old in any gathered or
// stored graph; SeedAppended's entries are new); only the points past
// the prior receive random initialization, so the descent reduces to a
// short refinement that stitches the new points into the neighborhood
// structure — the incremental-update workflow the paper's Section 7
// sketches for Metall-backed graphs. dead, when non-nil, is the
// mutable index's frozen tombstone set: live vertices are repaired
// (dead warm neighbors are dropped at load, and the resulting short
// lists are topped up with random candidates flagged new, which
// re-focuses the descent on the damage); dead vertices keep their
// prior lists verbatim so the search graph stays routable through them
// until compaction, but they generate no checks, never appear in
// sampling, and never enter a live vertex's list. The result is
// bit-identical at every worker width, like the full build.
func buildIncremental[T wire.Scalar](c *ygm.Comm, shard *Shard[T], kern metric.Kernel[T], cfg Config, prior *knng.Graph, dead *knng.TombSet) (*Result, error) {
	if err := cfg.Validate(shard.N); err != nil {
		return nil, err
	}
	if dead != nil {
		if dead.Len() > shard.N {
			return nil, fmt.Errorf("core: tombstone set covers %d vertices but dataset only %d",
				dead.Len(), shard.N)
		}
		if alive := shard.N - dead.Count(); alive <= cfg.K {
			return nil, fmt.Errorf("core: only %d live vertices for K=%d; compact instead of refining",
				alive, cfg.K)
		}
	}
	if kern.Fn == nil {
		return nil, fmt.Errorf("core: kernel has no distance function")
	}
	if prior != nil && prior.NumVertices() > shard.N {
		return nil, fmt.Errorf("core: warm graph has %d vertices but dataset only %d",
			prior.NumVertices(), shard.N)
	}
	b := &builder[T]{
		c:      c,
		cfg:    cfg,
		kern:   kern,
		shard:  shard,
		rng:    rand.New(rand.NewSource(cfg.Seed*7919 + int64(c.Rank()))),
		w:      wire.NewWriter(256),
		replyW: wire.NewWriter(256),
		r:      wire.NewReader(nil),
		byRef:  c.InProcess(),
	}
	if b.byRef {
		b.data = shard.data
	}
	b.register()

	b.lists = knng.MakeNeighborLists(shard.Len(), cfg.K)
	b.olds = make([][]knng.ID, shard.Len())
	b.news = make([][]knng.ID, shard.Len())

	if kern.Norm != nil && kern.FnPre != nil {
		b.norms = make([]float32, shard.Len())
		for i, v := range shard.Vecs {
			b.norms[i] = kern.Norm(v)
		}
	}

	// The worker pool exists at every width (including 1): the ring's
	// stage/apply discipline is part of the message interleaving, so
	// running it unconditionally is what makes results independent of
	// the worker count. Distance batches evaluate through the metric
	// kernel (bit-identical on every path by the metric.Kernel
	// contract) and effects land through b.applyTask. The local-work
	// hook keeps ygm quiescence honest while staged tasks still owe
	// replies; it is detached before the pool stops.
	b.pool = newWorkpool(resolveWorkers(cfg.workers, c.NRanks()), kern.EvalMany, b.applyTask, c.Trace())
	c.SetLocalWork(b.pool.runHook, b.pool.pendingHook, b.pool.applyingHook)
	defer func() {
		c.SetLocalWork(nil, nil, nil)
		b.pool.shutdown()
	}()

	b.warm = prior
	b.dead = dead

	// Every rank routes by its own owner table, so the tables must agree
	// before the first message; otherwise one rank would panic on a
	// vertex it does not own and the others would wait for it. Both
	// collectives run on every rank, so every rank returns the same
	// error. The checksum keeps 63 bits so that negating it cannot
	// overflow.
	sum := int64(shard.own.sum >> 1)
	hi := c.AllReduceMax(sum)
	lo := -c.AllReduceMax(-sum)
	if lo != hi {
		return nil, &OwnershipError{Lo: uint64(lo), Hi: uint64(hi)}
	}
	if shard.own.nranks != c.NRanks() {
		return nil, fmt.Errorf("core: shard partitioned over %d ranks in a world of %d", shard.own.nranks, c.NRanks())
	}

	res := &Result{K: cfg.K, N: shard.N, Workers: b.pool.workers}

	b.initGraph()

	// At least 1: a round with zero updates ends the descent even where
	// Delta*K*N truncates to 0.
	threshold := max(int64(cfg.Delta*float64(cfg.K)*float64(shard.N)), 1)
	for res.Iters < cfg.MaxIters {
		res.Iters++
		rsp := c.Trace().BeginArg("nd.round", int64(res.Iters))
		checks := b.round()
		globalUpdates := c.AllReduceSum(b.updates)
		globalChecks := c.AllReduceSum(checks)
		b.updates = 0
		res.Rounds = append(res.Rounds, RoundInfo{Updates: globalUpdates, Checks: globalChecks})
		rsp.End()
		if globalUpdates < threshold {
			break
		}
	}

	if cfg.Optimize {
		b.optimizeGraph()
	}

	b.gather(res)
	b.collectTotals(res)
	// Final synchronization: after Build returns, no rank awaits any
	// message from a peer, so callers may immediately exit or close
	// their transports (important for multi-process TCP worlds).
	c.Barrier()
	return res, nil
}

// LocalBuild is the outcome of BuildLocal: rank 0's Result, which
// holds the gathered graph, and every rank's communication counters.
type LocalBuild struct {
	*Result
	PerRank []ygm.Stats // each rank's counters
	Stats   ygm.Stats   // their aggregate
}

// BuildLocal is the one in-process runner: it cuts data over an
// in-process world of ranks ranks (<= 0 means 1; at most len(data))
// and runs buildIncremental on every rank. A non-nil prior is
// first grown over the appended rows by SeedAppended, and the seeding
// search's evaluations are counted in the Result's DistEvals. tr and
// reg, when non-nil, receive the world's span timeline and its live
// per-rank counters.
func BuildLocal[T wire.Scalar](data [][]T, ranks int, kern metric.Kernel[T], cfg Config, prior *knng.Graph, dead *knng.TombSet, tr *obs.Tracer, reg *obs.Registry) (*LocalBuild, error) {
	if err := cfg.Validate(len(data)); err != nil {
		return nil, err
	}
	ranks = min(max(ranks, 1), len(data))
	var seedEvals int64
	if prior != nil {
		prior, seedEvals = SeedAppended(data, prior, dead, kern.Fn, cfg)
	}
	world := ygm.NewLocalWorld(ranks)
	world.SetTracer(tr)
	if reg != nil {
		world.PublishMetrics(reg)
	}
	// One owner table for the whole world, computed once and shared
	// read-only: every rank's shard is cut from it.
	own := newOwnership(data, ranks)
	var root *Result // written by rank 0 only; Run returns after every rank
	err := world.Run(func(c *ygm.Comm) error {
		res, err := buildIncremental(c, cut(data, own, c.Rank()), kern, cfg, prior, dead)
		if err == nil && c.Rank() == 0 {
			root = res
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	root.DistEvals += seedEvals
	out := &LocalBuild{Result: root, PerRank: make([]ygm.Stats, ranks), Stats: world.AggregateStats()}
	for i := range out.PerRank {
		out.PerRank[i] = world.Comm(i).Stats()
	}
	return out, nil
}

// asyncByRef sends a vector-carrying message by reference: head holds
// the encoded message head, and the record is charged what head plus
// the encoded vec would have occupied on the wire.
func (b *builder[T]) asyncByRef(dest int, h ygm.HandlerID, head *wire.Writer, vec []T) {
	b.c.AsyncCharged(dest, h, head.Bytes(), head.Len()+wire.VectorBytes[T](len(vec)))
}

// register declares the phases and installs every handler under its
// phase-qualified name. The order is part of the wire protocol: every
// rank must produce the same HandlerIDs.
func (b *builder[T]) register() {
	b.phInit = b.newPhase("nd.init")
	b.phSample = b.newPhase("nd.sample")
	b.phReverse = b.newPhase("nd.reverse")
	b.phChecks = b.newPhase("nd.check")
	b.phOpt = b.newPhase("nd.opt")
	b.phGather = b.newPhase("nd.gather")

	b.hInitReq = b.phInit.register("req", func(c *ygm.Comm, from int, p []byte) { b.onInitReq(p) })
	b.hInitResp = b.phInit.register("resp", func(c *ygm.Comm, from int, p []byte) { b.onInitResp(p) })
	b.hRevOld = b.phReverse.register("old", func(c *ygm.Comm, from int, p []byte) { b.onReverse(p, true) })
	b.hRevNew = b.phReverse.register("new", func(c *ygm.Comm, from int, p []byte) { b.onReverse(p, false) })
	b.hType1 = b.phChecks.register("type1", func(c *ygm.Comm, from int, p []byte) { b.onType1(p) })
	b.hType2 = b.phChecks.register("type2", func(c *ygm.Comm, from int, p []byte) { b.onType2(p) })
	b.hType3 = b.phChecks.register("type3", func(c *ygm.Comm, from int, p []byte) { b.onType3(p) })
	b.hOptEdge = b.phOpt.register("edge", func(c *ygm.Comm, from int, p []byte) { b.onOptEdge(p) })
	b.hGather = b.phGather.register("row", func(c *ygm.Comm, from int, p []byte) { b.onGather(p) })
}

func (b *builder[T]) owner(id knng.ID) int { return int(b.shard.own.owner[id]) }

// localIndex returns the shard index of an owned vertex.
func (b *builder[T]) localIndex(id knng.ID) int {
	i, ok := b.shard.lookup(id)
	if !ok {
		panic("core: message routed to non-owner rank")
	}
	return i
}

// stageDist stages one distance evaluation theta(query, local vertex
// j) onto the worker pool, coalescing with preceding candidates from
// the same sender. The kernel's norm-precomputed batch path is used
// when available; all paths are bit-identical by the metric.Kernel
// contract, so the worker count cannot change any distance.
func (b *builder[T]) stageDist(kind uint8, key knng.ID, query []T, stable bool, m cand, j int) {
	var norm float32
	if b.norms != nil {
		norm = b.norms[j]
	}
	b.pool.stageCompute(kind, key, query, stable, m, b.shard.Vecs[j], norm, b.norms != nil)
}

// phaseWriter returns the builder's reused writer for a phase's emit
// loop.
func (b *builder[T]) phaseWriter() *wire.Writer {
	b.w.Reset()
	return b.w
}

// replyWriter returns the writer for a handler's reply, and for the
// Type 2 an own-rank Type 1 sends from the emit loop. Handlers never
// nest (the comm never re-enters dispatch from inside a handler), and
// Async copies the payload before returning, so one reused writer
// suffices; it is distinct from the phase writer because handlers run
// in the middle of phase emit loops.
func (b *builder[T]) replyWriter() *wire.Writer {
	b.replyW.Reset()
	return b.replyW
}

// handlerReader returns the builder's reused reader for a handler's
// decode. Safe for the same reason the reused replyWriter is: handlers
// never nest, and nothing borrowed from the reader outlives the
// handler invocation.
func (b *builder[T]) handlerReader(p []byte) *wire.Reader {
	b.r.Reset(p)
	return b.r
}

// getVec yields the feature vector of a message about vertex id whose
// head r has just decoded, and whether it is stable storage. On the
// by-reference path the vector is the dataset row, stable for the
// whole build, which the pool may alias. Otherwise it is decoded off
// the wire as a borrowed view / reused scratch (valid only within the
// current handler, so the pool must copy it). A record of the other
// shape — full on the by-reference path, head-only on the byte path —
// is left to fail the caller's r.Finish() check (trailing bytes,
// short buffer) instead of being mis-read.
func (b *builder[T]) getVec(r *wire.Reader, id knng.ID) (vec []T, stable bool) {
	if b.byRef {
		return b.data[id], true
	}
	v, scratch := wire.GetVectorBorrow(r, b.vecScratch)
	b.vecScratch = scratch
	return v, false
}

// beginVisit starts a fresh generation of the builder's shared visited
// set over the global ID space. The epoch-stamp mechanics live in
// knng.VisitSet, shared with the search path's pooled contexts.
func (b *builder[T]) beginVisit() {
	b.visited.Begin(b.shard.N)
}

// applyTask applies one task's effects on the rank goroutine: the
// neighbor-list reads/writes, protocol decisions, counters, and reply
// sends that depend on its distances. Tasks apply in submission order,
// so for a fixed stage sequence the observable behavior is independent
// of the worker count. The reused replyWriter is safe here for the same
// reason it is safe in handlers: applies never nest, and no handler
// runs inside one.
func (b *builder[T]) applyTask(t *task[T]) {
	b.distEvals += int64(len(t.Meta))
	switch t.Kind {
	case taskInitReq:
		b.applyInitReq(t)
	case taskType2:
		for i := range t.Meta {
			b.applyType2(&t.Meta[i], t.Dists[i])
		}
	case taskLocal:
		i := b.localIndex(t.Key) // every candidate's u1
		for k := range t.Meta {
			b.applyLocal(i, &t.Meta[k], t.Dists[k])
		}
	}
}

// round executes one NN-Descent iteration and returns the number of
// check pairs generated locally. Phase wall time accumulates on the
// phases.
func (b *builder[T]) round() int64 {
	if cap(b.olds) < b.shard.Len() {
		b.olds = make([][]knng.ID, b.shard.Len())
		b.news = make([][]knng.ID, b.shard.Len())
	}
	b.phSample.local(b.sampleLists)
	b.exchangeReverse()
	b.phSample.local(b.mergeReverseSamples)
	return b.neighborChecks()
}
