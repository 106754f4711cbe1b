package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnnd/internal/obs"
	"dnnd/internal/wire"
	"dnnd/internal/ygm"
)

// The intra-rank worker pool: deterministic fork/join for message-
// driven hot phases.
//
// The paper's ranks are MPI processes pinned one-per-core, so the
// neighbor-check phase runs with full node parallelism; our ranks are
// single goroutines. The pool spreads the dominant cost — distance
// kernels — over Workers goroutines per rank while preserving the
// bit-determinism guarantee. The discipline:
//
//   - Message handlers never touch application state and never send.
//     They only decode and STAGE: append a candidate to a task on a
//     FIFO ring, coalescing consecutive records that share (kind,
//     sender) into one task so the sender's query vector is staged
//     once (copied, or aliased when it is a stable dataset row) and
//     evaluated as a batch.
//   - Workers CLAIM sealed compute tasks and fill in the distances via
//     the Eval callback. They see only immutable inputs (the staged
//     query, vector views, cached norms) and the task-local
//     output slice; they never touch the Comm, application state, or
//     the RNG.
//   - The owning rank goroutine APPLIES tasks strictly in submission
//     order through the Apply callback: all state reads and writes,
//     protocol decisions, counters, and reply sends happen there,
//     serially. If the head task is not computed yet the applier
//     computes it inline (work-stealing via the same claim CAS), so
//     Workers=1 simply means "no helper goroutines".
//
// Apply points are functions of the STAGE sequence alone, never of
// worker completion timing: the ring drains to half when it reaches
// RingSize staged tasks, and drains fully whenever the ygm progress
// engine asks (the barrier/collective local-work hook — see
// internal/ygm/localwork.go, which also keeps quiescence detection
// sound while staged tasks still owe replies). On a single rank the
// stage sequence is deterministic, so the interleaving of applies with
// dispatches — and therefore RNG consumption, message counts and
// bytes, round counters, and final results — is bit-identical for
// every worker count on every schedule. Because deferring replies
// changes the send interleaving relative to inline handling, the ring
// discipline runs at ALL worker counts; "Workers=1 equals Workers=4"
// holds by construction, not by luck.
const (
	// DefaultRingSize is the staged-task soft cap before a half-drain.
	DefaultRingSize = 512
	// DefaultBatchSize is the max candidates coalesced into one task.
	DefaultBatchSize = 64
)

// Cand is the per-candidate apply metadata. Field use varies by task
// kind: A/B are protocol vertex IDs in wire order, Local is the shard
// index of the receiver-side vertex, and D carries a bound or an
// already-computed distance for apply-only kinds.
type Cand struct {
	A, B  uint32
	Local int32
	D     float32
}

// Task lifecycle, packed into one atomic word as gen<<2|phase. A task
// starts open (tail under coalescing, invisible to workers), is sealed
// to ready when the next task begins or a drain starts, claimed by
// exactly one goroutine via CAS, and done once distances are written.
// The generation counter increments on recycle so a stale queue item
// can never claim a reused task (the classic freelist ABA).
const (
	stOpen uint64 = iota
	stReady
	stClaimed
	stDone
)

// Task is one coalesced unit on the ring. Kind and Key are the
// application's coalescing tags; Query/Vecs/Meta are the staged batch;
// Dists holds the Eval output for compute tasks. Applications read
// exported fields inside their Apply callback and must not retain them
// past it (tasks recycle).
type Task[T wire.Scalar] struct {
	state   atomic.Uint64
	compute bool
	seq     int64 // staging sequence number (drives kernel-time sampling)
	qbuf    []T   // slab-backed private buffer behind copied queries

	Kind uint8
	Key  uint32 // coalescing key: the sender vertex whose vector is the query
	// Query is the staged query vector: either qbuf holding a copy of a
	// transient handler view, or a capacity-clipped alias of the
	// caller's stable storage. The pool only ever assigns it — it never
	// appends into it — so an aliased row cannot be written through it.
	Query []T
	Vecs  [][]T // candidate vectors; alias stable storage (immutable)
	norms []float32
	Meta  []Cand
	Dists []float32
}

// Compute reports whether the task carries distance evaluations
// (staged via StageCompute) as opposed to apply-only records.
func (t *Task[T]) Compute() bool { return t.compute }

func (t *Task[T]) gen() uint64 { return t.state.Load() >> 2 }

// poolItem is one queue entry: either a sealed compute task (with the
// generation observed at seal time) or a ParallelFor job.
type poolItem[T wire.Scalar] struct {
	t   *Task[T]
	gen uint64
	fn  func()
}

type errBox struct{ err error }

// PoolConfig wires a Pool to its application.
type PoolConfig[T wire.Scalar] struct {
	// Workers is the pool width; 1 means no helper goroutines.
	Workers int
	// Dim pre-sizes staged query copies (the dataset dimensionality).
	Dim int
	// RingSize and BatchSize override the ring knobs; 0 selects the
	// defaults. They are part of the apply-point schedule, so two runs
	// only compare equal when built with the same values.
	RingSize  int
	BatchSize int
	// Eval computes the distance batch of one compute task: dists[i] =
	// theta(query, vecs[i]). norms is nil unless the application staged
	// a norm for every candidate. Runs on worker goroutines; it must
	// touch nothing but its arguments.
	Eval func(query []T, vecs [][]T, norms []float32, dists []float32)
	// Apply lands one task's effects, on the owning rank's goroutine,
	// in staging order.
	Apply func(t *Task[T])
	// Comm, when non-nil, receives deferred-task accounting
	// (Stats.TasksDeferred).
	Comm *ygm.Comm
	// Trace, when non-nil, records a span per ring drain (the apply
	// loop on the owning goroutine). Nil-safe; leave nil to opt out.
	Trace *obs.Track
}

// Pool is the deterministic intra-rank worker pool. All staging and
// applying happens on the owning rank's goroutine; only Eval (and
// ParallelFor bodies) run on helpers.
type Pool[T wire.Scalar] struct {
	cfg      PoolConfig[T]
	workers  int
	ringCap  int
	batchCap int

	ring  []*Task[T] // FIFO of staged tasks; ring[head] applies next
	head  int
	free  []*Task[T]
	blank []*Task[T] // slab-allocated never-used tasks (see allocTask)

	queue chan poolItem[T]
	wg    sync.WaitGroup

	applying bool // re-entrancy guard: applies can dispatch, dispatch stages
	execErr  atomic.Pointer[errBox]

	// Offload accounting: tasksStaged/candsStaged mirror what was
	// handed to the ring. kernelNS is wall time spent inside Eval (by
	// workers and by inline applier execution alike) on the sampled
	// tasks — timing every task costs two clock reads against kernel
	// batches that can be shorter than the reads, so only tasks whose
	// staging sequence number is a multiple of kernelSampleStride are
	// timed, over sampledCands candidates; KernelTime extrapolates by
	// candidate count. The sampled set is a function of the stage
	// sequence, so it is identical for every worker count.
	tasksStaged  int64
	candsStaged  int64
	kernelNS     atomic.Int64
	sampledCands atomic.Int64
}

// NewPool starts a pool with cfg.Workers-1 helper goroutines.
func NewPool[T wire.Scalar](cfg PoolConfig[T]) *Pool[T] {
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	p := &Pool[T]{
		cfg:      cfg,
		workers:  cfg.Workers,
		ringCap:  cfg.RingSize,
		batchCap: cfg.BatchSize,
		queue:    make(chan poolItem[T], cfg.RingSize+64),
	}
	if p.ringCap < 2 {
		p.ringCap = 2
	}
	for i := 1; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers returns the pool width.
func (p *Pool[T]) Workers() int { return p.workers }

// TasksStaged returns the number of coalesced tasks staged so far.
func (p *Pool[T]) TasksStaged() int64 { return p.tasksStaged }

// Shutdown stops the helper goroutines. The ring is expected to be
// empty on the success path (the final barrier drained it); on error
// paths leftover tasks are simply dropped.
func (p *Pool[T]) Shutdown() {
	close(p.queue)
	p.wg.Wait()
}

func (p *Pool[T]) worker() {
	defer p.wg.Done()
	for it := range p.queue {
		if it.fn != nil {
			p.runSafe(it.fn)
			continue
		}
		if it.t.state.CompareAndSwap(it.gen<<2|stReady, it.gen<<2|stClaimed) {
			p.execSafe(it.t, it.gen)
		}
	}
}

// execSafe computes a claimed task, converting a panic into a stored
// error (rethrown on the rank goroutine) and always marking the task
// done so the applier cannot spin forever.
func (p *Pool[T]) execSafe(t *Task[T], gen uint64) {
	defer func() {
		if r := recover(); r != nil {
			p.setErr(fmt.Errorf("engine: worker panic: %v", r))
		}
		t.state.Store(gen<<2 | stDone)
	}()
	p.exec(t)
}

func (p *Pool[T]) runSafe(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			p.setErr(fmt.Errorf("engine: worker panic: %v", r))
		}
	}()
	fn()
}

func (p *Pool[T]) setErr(err error) {
	p.execErr.CompareAndSwap(nil, &errBox{err})
}

func (p *Pool[T]) checkErr() {
	if box := p.execErr.Load(); box != nil {
		panic(box.err)
	}
}

// kernelSampleStride picks which compute tasks are wall-timed: those
// whose staging sequence is a multiple of it (see KernelTime).
const kernelSampleStride = 16

// exec evaluates one compute task's distance batch.
func (p *Pool[T]) exec(t *Task[T]) {
	n := len(t.Meta)
	if cap(t.Dists) < n {
		t.Dists = make([]float32, n)
	} else {
		t.Dists = t.Dists[:n]
	}
	var norms []float32
	if len(t.norms) == n {
		norms = t.norms
	}
	if t.seq%kernelSampleStride != 0 {
		p.cfg.Eval(t.Query, t.Vecs[:n], norms, t.Dists)
		return
	}
	start := time.Now()
	p.cfg.Eval(t.Query, t.Vecs[:n], norms, t.Dists)
	p.kernelNS.Add(int64(time.Since(start)))
	p.sampledCands.Add(int64(n))
}

// KernelTime extrapolates the sampled Eval wall time to the whole run
// by candidate count. Tasks are near-homogeneous (same kernel, batches
// bounded by BatchSize), so the 1-in-kernelSampleStride sample
// estimates the true kernel share at ~6% of the full-instrumentation
// clock-read cost.
func (p *Pool[T]) KernelTime() int64 {
	ns := p.kernelNS.Load()
	if sc := p.sampledCands.Load(); sc > 0 && p.candsStaged > sc {
		ns = int64(float64(ns) * float64(p.candsStaged) / float64(sc))
	}
	return ns
}

// ---- staging (handler side, rank goroutine) --------------------------

func (p *Pool[T]) size() int { return len(p.ring) - p.head }

// tail returns the open coalescing target for (kind, key), or nil.
func (p *Pool[T]) tail(kind uint8, key uint32, keyed bool) *Task[T] {
	if p.size() == 0 {
		return nil
	}
	t := p.ring[len(p.ring)-1]
	if t.state.Load()&3 != stOpen || t.Kind != kind || len(t.Meta) >= p.batchCap {
		return nil
	}
	if keyed && t.Key != key {
		return nil
	}
	return t
}

// allocTask hands out a never-used task from a slab-allocated block:
// one block allocation pre-sizes the slices of 64 tasks to the
// coalescing caps, so a task's first life costs no growth
// reallocations (recycled tasks keep whatever capacity they ratcheted
// up to). The three-index slab slices pin each task to its region —
// growing past the cap breaks the alias instead of clobbering a
// neighbor. Rank-goroutine only.
func (p *Pool[T]) allocTask() *Task[T] {
	if len(p.blank) == 0 {
		const blk = 64
		dim := p.cfg.Dim
		// Meta gets the full coalescing cap: apply-only tasks routinely
		// fill it, and re-ratcheting it on every first life dominated
		// allocation churn. The vector-side slices get a small starter
		// — compute batches average a couple of candidates, so full-cap
		// reservations would cost ~8x what the median task uses; the
		// rare deep batch ratchets up via append and keeps the larger
		// backing across recycles.
		sc := 16
		if sc > p.batchCap {
			sc = p.batchCap
		}
		bc := p.batchCap
		ts := make([]Task[T], blk)
		queries := make([]T, blk*dim)
		vecs := make([][]T, blk*sc)
		metas := make([]Cand, blk*bc)
		norms := make([]float32, blk*sc)
		dists := make([]float32, blk*sc)
		for i := range ts {
			t := &ts[i]
			t.qbuf = queries[i*dim : i*dim : (i+1)*dim]
			t.Vecs = vecs[i*sc : i*sc : (i+1)*sc]
			t.Meta = metas[i*bc : i*bc : (i+1)*bc]
			t.norms = norms[i*sc : i*sc : (i+1)*sc]
			t.Dists = dists[i*sc : i*sc : (i+1)*sc]
			p.blank = append(p.blank, t)
		}
	}
	t := p.blank[len(p.blank)-1]
	p.blank = p.blank[:len(p.blank)-1]
	return t
}

// newTask seals the current tail, takes a task off the freelist (or
// allocates), and appends it to the ring as the new open tail.
func (p *Pool[T]) newTask(kind uint8, key uint32, compute bool) *Task[T] {
	p.sealTail()
	var t *Task[T]
	if n := len(p.free); n > 0 {
		t = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		t = p.allocTask()
	}
	t.Kind = kind
	t.Key = key
	t.compute = compute
	t.seq = p.tasksStaged
	t.Query = nil
	t.Vecs = t.Vecs[:0]
	t.norms = t.norms[:0]
	t.Meta = t.Meta[:0]
	p.ring = append(p.ring, t)
	p.tasksStaged++
	if p.cfg.Comm != nil {
		p.cfg.Comm.AddTasksDeferred(1)
	}
	return t
}

// sealTail publishes the open tail: compute tasks become claimable and
// are offered to the helper queue (non-blocking — if the queue is full
// the applier will compute them inline when their turn comes).
func (p *Pool[T]) sealTail() {
	if p.size() == 0 {
		return
	}
	t := p.ring[len(p.ring)-1]
	s := t.state.Load()
	if s&3 != stOpen {
		return
	}
	if !t.compute {
		return // apply-only tasks are never claimed by workers
	}
	gen := s >> 2
	t.state.Store(gen<<2 | stReady)
	if p.workers > 1 {
		select {
		case p.queue <- poolItem[T]{t: t, gen: gen}:
		default:
		}
	}
}

// StageCompute appends a distance evaluation (query vs vec) to the
// ring, coalescing with the open tail when kind and key match. With
// stable false the query slice may be a transient decode view; it is
// copied on first use. With stable true the caller vouches that query
// is storage that stays valid and unmodified until the task has been
// applied (a dataset row), and the task aliases it instead. vec must
// alias stable storage (the shard). norm is staged when hasNorm;
// mixed-norm tasks disable the norms fast path for safety.
func (p *Pool[T]) StageCompute(kind uint8, key uint32, query []T, stable bool, m Cand, vec []T, norm float32, hasNorm bool) {
	t := p.tail(kind, key, true)
	if t == nil {
		t = p.newTask(kind, key, true)
		if stable {
			t.Query = query[:len(query):len(query)]
		} else {
			t.qbuf = append(t.qbuf[:0], query...)
			t.Query = t.qbuf
		}
	}
	t.Meta = append(t.Meta, m)
	t.Vecs = append(t.Vecs, vec)
	if hasNorm {
		t.norms = append(t.norms, norm)
	}
	p.candsStaged++
	p.maybeDrain()
}

// StageApply appends an apply-only record (no distance to compute),
// holding its ring slot so effects land in arrival order.
func (p *Pool[T]) StageApply(kind uint8, m Cand) {
	t := p.tail(kind, 0, false)
	if t == nil {
		t = p.newTask(kind, 0, false)
	}
	t.Meta = append(t.Meta, m)
	p.maybeDrain()
}

// maybeDrain applies the ring down to half when it reaches the soft
// cap. The trigger depends only on staged-task counts — never on
// worker completion — so it fires at identical points for every worker
// count. Staging from inside an apply (applies send, sends can
// dispatch, dispatch stages) must not recurse; the ring simply grows
// past the cap until the outer apply loop consumes it.
func (p *Pool[T]) maybeDrain() {
	if p.size() >= p.ringCap && !p.applying {
		p.applyDownTo(p.ringCap / 2)
	}
}

// ---- applying (rank goroutine only) ----------------------------------

// RunHook and PendingHook are the ygm local-work callbacks: the
// progress engine applies everything whenever the rank would otherwise
// idle, and quiescence requires an empty ring. Pass them to
// Comm.SetLocalWork.
func (p *Pool[T]) RunHook() bool     { return p.applyDownTo(0) }
func (p *Pool[T]) PendingHook() bool { return p.size() > 0 }

// applyDownTo applies head tasks in submission order until at most
// target staged tasks remain, returning whether anything was applied.
// Tasks staged by nested dispatches during the loop are consumed by
// the same loop when they fit under target.
func (p *Pool[T]) applyDownTo(target int) bool {
	if p.applying || p.size() <= target {
		return false
	}
	sp := p.cfg.Trace.BeginArg("pool.drain", int64(p.size()-target))
	defer sp.End()
	p.applying = true
	defer func() { p.applying = false }()
	p.sealTail() // let helpers start on the backlog we are about to walk
	applied := false
	for p.size() > target {
		t := p.ring[p.head]
		p.ring[p.head] = nil
		p.head++
		p.await(t)
		p.checkErr()
		p.cfg.Apply(t)
		p.recycle(t)
		applied = true
		if p.head >= 64 && p.head*2 >= len(p.ring) {
			n := copy(p.ring, p.ring[p.head:])
			p.ring = p.ring[:n]
			p.head = 0
		}
	}
	return applied
}

// await makes a compute task's distances available, stealing the work
// if no helper has: open tasks (only we can see them) and unclaimed
// ready tasks are computed inline; claimed tasks are spin-waited with
// Gosched so the claiming worker can finish even on a single core.
func (p *Pool[T]) await(t *Task[T]) {
	if !t.compute {
		return
	}
	for {
		s := t.state.Load()
		gen := s >> 2
		switch s & 3 {
		case stOpen:
			p.exec(t)
			t.state.Store(gen<<2 | stDone)
			return
		case stReady:
			if t.state.CompareAndSwap(s, gen<<2|stClaimed) {
				p.execSafe(t, gen)
				return
			}
		case stClaimed:
			runtime.Gosched()
		case stDone:
			return
		}
	}
}

// recycle returns an applied task to the freelist under a fresh
// generation, so stale queue items cannot claim its next life.
func (p *Pool[T]) recycle(t *Task[T]) {
	gen := t.gen()
	t.state.Store((gen + 1) << 2) // stOpen
	p.free = append(p.free, t)
}

// ---- ParallelFor (bulk per-item phases, e.g. the 4.5 merge) ----------

// ParallelFor runs body(i) for i in [0, n) across the pool. The owner
// participates; helpers chunk-claim via an atomic cursor. body must be
// independent per item (no shared mutable state without its own
// synchronization); item-to-goroutine assignment is nondeterministic,
// so body's output must not depend on which goroutine runs it.
func (p *Pool[T]) ParallelFor(n int, body func(i int)) {
	if p.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	const chunk = 16
	var next atomic.Int64
	run := func() {
		for {
			hi := next.Add(chunk)
			lo := hi - chunk
			if lo >= int64(n) {
				return
			}
			if hi > int64(n) {
				hi = int64(n)
			}
			for i := lo; i < hi; i++ {
				body(int(i))
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < p.workers; w++ {
		wg.Add(1)
		item := poolItem[T]{fn: func() {
			// Recover before Done: a deferred Done would run while the
			// panic is still unwinding, releasing the owner's Wait —
			// and its checkErr — before the worker has stored the error.
			defer wg.Done()
			p.runSafe(run)
		}}
		select {
		case p.queue <- item:
		default:
			wg.Done() // queue full: the owner's run() covers the items
		}
	}
	run()
	wg.Wait()
	p.checkErr()
}
