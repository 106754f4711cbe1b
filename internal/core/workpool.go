package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnnd/internal/obs"
	"dnnd/internal/wire"
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
//   - Message handlers never evaluate a distance. A record that
//     computes nothing (an init reply, a Type 1 request, a Type 3
//     return) is applied where it arrives, as YGM's handlers act on
//     receipt: it updates a list, or decides and sends. A record that
//     needs a distance is STAGED: appended as a candidate to a task on
//     a FIFO ring, coalescing consecutive records that share (kind,
//     key) into one task so the sender's query vector is staged once
//     (copied, or aliased when it is a stable dataset row) and
//     evaluated as a batch.
//   - Workers CLAIM sealed tasks and fill in the distances via eval.
//     They see only immutable inputs (the staged query, vector views,
//     cached norms) and the task-local output slice; they never touch
//     the Comm, builder state, or the RNG.
//   - The owning rank goroutine APPLIES tasks strictly in submission
//     order through apply: the state reads and writes, protocol
//     decisions, counters, and reply sends that depend on a computed
//     distance happen there, serially. If nobody has claimed the head
//     task yet the applier computes it inline (work-stealing via the
//     same claim CAS); while a helper holds it, the applier computes
//     the next ready tasks ahead instead of waiting. So Workers=1 simply
//     means "no helper goroutines".
//
// Apply points are functions of the STAGE sequence alone, never of
// worker completion timing: the ring drains to half when it reaches
// taskRingSize staged tasks, and drains fully whenever the ygm progress
// engine asks (the barrier/collective local-work hook — see
// internal/ygm/localwork.go, which also keeps quiescence detection
// sound while staged tasks still owe replies). While the ring is being
// applied the comm drains no mailbox and an apply stages nothing, so
// inbound records wait there as compact frame bytes rather than as
// staged tasks, and the ring never holds more than its cap at any rank
// count (see maybeDrain). On a single rank the stage sequence is
// deterministic, so the interleaving of applies with dispatches — and
// therefore RNG consumption, message counts and bytes, round counters,
// and final results — is bit-identical for every worker count on every
// schedule. Because deferring replies changes the send interleaving
// relative to inline handling, the ring discipline runs at ALL worker
// counts; "Workers=1 equals Workers=4" holds by construction, not by
// luck.

// Ring knobs (tests shrink them to hammer the drain paths). They are
// part of the apply-point schedule, so two runs only compare equal when
// built with the same values.
var (
	taskRingSize  = 512 // staged-task soft cap before a half-drain
	taskBatchSize = 64  // max candidates coalesced into one task
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

// The construction's task kinds (task.Kind values). Each is one
// distance evaluation per candidate.
const (
	taskInitReq uint8 = iota // init distance request + InitResp reply
	taskType2                // theta(u1,u2) + update + Type 3 decision
	taskLocal                // theta(u1,u2) of a co-owned pair + both updates
)

// cand is the per-candidate apply metadata. Field use varies by task
// kind: A/B are protocol vertex IDs in wire order, Local is the shard
// index of the receiver-side vertex, and D carries a Type 2+ bound.
type cand struct {
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

// task is one coalesced unit on the ring. Kind and Key are the
// coalescing tags; Query/Vecs/Meta are the staged batch; Dists holds
// the eval output. apply reads them and must not retain them past its
// return (tasks recycle).
type task[T wire.Scalar] struct {
	state atomic.Uint64
	seq   int64 // staging sequence number (drives kernel-time sampling)
	qbuf  []T   // private buffer behind copied queries, allocated on first copy

	Kind uint8
	Key  uint32 // coalescing key: the sender vertex whose vector is the query
	// Query is the staged query vector: either qbuf holding a copy of a
	// transient handler view, or a capacity-clipped alias of the
	// caller's stable storage. The pool only ever assigns it — it never
	// appends into it — so an aliased row cannot be written through it.
	Query []T
	Vecs  [][]T // candidate vectors; alias stable storage (immutable)
	norms []float32
	Meta  []cand
	Dists []float32
}

func (t *task[T]) gen() uint64 { return t.state.Load() >> 2 }

// poolItem is one queue entry: a sealed task with the generation
// observed at seal time.
type poolItem[T wire.Scalar] struct {
	t   *task[T]
	gen uint64
}

type errBox struct{ err error }

// workpool is the deterministic intra-rank worker pool. All staging
// and applying happens on the owning rank's goroutine; only eval runs
// on helpers.
type workpool[T wire.Scalar] struct {
	workers  int
	ringCap  int
	batchCap int
	// eval computes the distance batch of one task: dists[i] =
	// theta(query, vecs[i]). norms is nil unless a norm was staged for
	// every candidate. Runs on helper goroutines; it must touch nothing
	// but its arguments.
	eval func(query []T, vecs [][]T, norms []float32, dists []float32)
	// apply lands one task's effects, on the owning rank's goroutine,
	// in staging order.
	apply func(t *task[T])
	// trace, when non-nil, records a span per ring drain.
	trace *obs.Track

	ring  []*task[T] // FIFO of staged tasks; ring[head] applies next
	head  int
	help  int // await's scan cursor: no task in ring[head:help] is ready
	free  []*task[T]
	blank []*task[T] // slab-allocated never-used tasks (see allocTask)

	queue chan poolItem[T]
	wg    sync.WaitGroup

	applying bool // re-entrancy guard: applies can dispatch, dispatch stages
	execErr  atomic.Pointer[errBox]

	// Offload accounting: tasksStaged/candsStaged mirror what was
	// handed to the ring. kernelNS is wall time spent inside eval (by
	// workers and by inline applier execution alike) on the sampled
	// tasks — timing every task costs two clock reads against kernel
	// batches that can be shorter than the reads, so only tasks whose
	// staging sequence number is a multiple of kernelSampleStride are
	// timed, over sampledCands candidates; kernelTime extrapolates by
	// candidate count. The sampled set is a function of the stage
	// sequence, so it is identical for every worker count.
	tasksStaged  int64
	candsStaged  int64
	peakStaged   int // high-water mark of size()
	kernelNS     atomic.Int64
	sampledCands atomic.Int64
}

// newWorkpool starts a pool with workers-1 helper goroutines, sized by
// the taskRingSize/taskBatchSize knobs.
func newWorkpool[T wire.Scalar](workers int, eval func(query []T, vecs [][]T, norms []float32, dists []float32), apply func(t *task[T]), trace *obs.Track) *workpool[T] {
	p := &workpool[T]{
		workers:  workers,
		ringCap:  max(taskRingSize, 2),
		batchCap: taskBatchSize,
		eval:     eval,
		apply:    apply,
		trace:    trace,
		// Room for the sealed tasks of a full ring plus slack. A full
		// queue drops the offer, and the applier computes the task
		// inline when its turn comes.
		queue: make(chan poolItem[T], taskRingSize+64),
	}
	for i := 1; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// shutdown stops the helper goroutines. The ring is expected to be
// empty on the success path (the final barrier drained it); on error
// paths leftover tasks are simply dropped.
func (p *workpool[T]) shutdown() {
	close(p.queue)
	p.wg.Wait()
}

func (p *workpool[T]) worker() {
	defer p.wg.Done()
	for it := range p.queue {
		if it.t.state.CompareAndSwap(it.gen<<2|stReady, it.gen<<2|stClaimed) {
			p.execSafe(it.t, it.gen)
		}
	}
}

// execSafe computes a claimed task, converting a panic into a stored
// error (rethrown on the rank goroutine) and always marking the task
// done so the applier cannot spin forever.
func (p *workpool[T]) execSafe(t *task[T], gen uint64) {
	defer func() {
		if r := recover(); r != nil {
			p.execErr.CompareAndSwap(nil, &errBox{fmt.Errorf("core: worker panic: %v", r)})
		}
		t.state.Store(gen<<2 | stDone)
	}()
	p.exec(t)
}

func (p *workpool[T]) checkErr() {
	if box := p.execErr.Load(); box != nil {
		panic(box.err)
	}
}

// kernelSampleStride picks which tasks are wall-timed: those
// whose staging sequence is a multiple of it (see kernelTime).
const kernelSampleStride = 16

// exec evaluates one task's distance batch.
func (p *workpool[T]) exec(t *task[T]) {
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
		p.eval(t.Query, t.Vecs[:n], norms, t.Dists)
		return
	}
	start := time.Now()
	p.eval(t.Query, t.Vecs[:n], norms, t.Dists)
	p.kernelNS.Add(int64(time.Since(start)))
	p.sampledCands.Add(int64(n))
}

// kernelTime extrapolates the sampled eval wall time to the whole run
// by candidate count. Tasks are near-homogeneous (same kernel, batches
// bounded by taskBatchSize), so the 1-in-kernelSampleStride sample
// estimates the true kernel share at ~6% of the full-instrumentation
// clock-read cost.
func (p *workpool[T]) kernelTime() int64 {
	ns := p.kernelNS.Load()
	if sc := p.sampledCands.Load(); sc > 0 && p.candsStaged > sc {
		ns = int64(float64(ns) * float64(p.candsStaged) / float64(sc))
	}
	return ns
}

// ---- staging (handler side, rank goroutine) --------------------------

func (p *workpool[T]) size() int { return len(p.ring) - p.head }

// tail returns the open coalescing target for (kind, key), or nil.
func (p *workpool[T]) tail(kind uint8, key uint32) *task[T] {
	if p.size() == 0 {
		return nil
	}
	t := p.ring[len(p.ring)-1]
	if t.state.Load()&3 != stOpen || t.Kind != kind || t.Key != key || len(t.Meta) >= p.batchCap {
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
// neighbor. No query buffer is reserved: stable queries (every dataset
// row of an in-process build) are aliased, and only a task that copies
// a transient view allocates its qbuf, once, keeping it across
// recycles. Rank-goroutine only.
func (p *workpool[T]) allocTask() *task[T] {
	if len(p.blank) == 0 {
		const blk = 64
		// Every per-candidate slice gets a small starter: batches
		// average a couple of candidates, so full-cap reservations
		// would cost ~8x what the median task uses; the rare deep batch
		// ratchets up via append and keeps the larger backing across
		// recycles.
		sc := min(16, p.batchCap)
		ts := make([]task[T], blk)
		vecs := make([][]T, blk*sc)
		metas := make([]cand, blk*sc)
		norms := make([]float32, blk*sc)
		dists := make([]float32, blk*sc)
		for i := range ts {
			t := &ts[i]
			t.Vecs = vecs[i*sc : i*sc : (i+1)*sc]
			t.Meta = metas[i*sc : i*sc : (i+1)*sc]
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
func (p *workpool[T]) newTask(kind uint8, key uint32) *task[T] {
	p.sealTail()
	var t *task[T]
	if n := len(p.free); n > 0 {
		t = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		t = p.allocTask()
	}
	t.Kind = kind
	t.Key = key
	t.seq = p.tasksStaged
	t.Query = nil
	t.Vecs = t.Vecs[:0]
	t.norms = t.norms[:0]
	t.Meta = t.Meta[:0]
	p.ring = append(p.ring, t)
	p.tasksStaged++
	p.peakStaged = max(p.peakStaged, p.size())
	return t
}

// sealTail publishes the open tail: it becomes claimable and is offered
// to the helper queue (non-blocking — if the queue is full the applier
// will compute it inline when its turn comes).
func (p *workpool[T]) sealTail() {
	if p.size() == 0 {
		return
	}
	t := p.ring[len(p.ring)-1]
	s := t.state.Load()
	if s&3 != stOpen {
		return
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

// stageCompute appends a distance evaluation (query vs vec) to the
// ring, coalescing with the open tail when kind and key match. With
// stable false the query slice may be a transient decode view; it is
// copied on first use. With stable true the caller vouches that query
// is storage that stays valid and unmodified until the task has been
// applied (a dataset row), and the task aliases it instead. vec must
// alias stable storage (the shard). norm is staged when hasNorm;
// mixed-norm tasks disable the norms fast path for safety.
func (p *workpool[T]) stageCompute(kind uint8, key uint32, query []T, stable bool, m cand, vec []T, norm float32, hasNorm bool) {
	t := p.tail(kind, key)
	if t == nil {
		t = p.newTask(kind, key)
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

// maybeDrain applies the ring down to half when it reaches the soft
// cap. The trigger depends only on staged-task counts — never on
// worker completion — so it fires at identical points for every worker
// count. Nothing is staged inside an apply: sends made by applies
// dispatch nothing (applyingHook), and no apply stages work of its
// own. Each staging adds at most one task and drains at the cap, so
// the ring never holds more than ringCap tasks however much traffic
// waits in the mailbox (TestStagedWorkStaysWithinRingBound).
func (p *workpool[T]) maybeDrain() {
	if p.size() >= p.ringCap {
		p.applyDownTo(p.ringCap / 2)
	}
}

// ---- applying (rank goroutine only) ----------------------------------

// runHook, pendingHook and applyingHook are the ygm local-work
// callbacks: the progress engine applies everything whenever the rank
// would otherwise idle, quiescence requires an empty ring, and sends
// made by applies drain no mailbox. Pass them to Comm.SetLocalWork.
func (p *workpool[T]) runHook() bool      { return p.applyDownTo(0) }
func (p *workpool[T]) pendingHook() bool  { return p.size() > 0 }
func (p *workpool[T]) applyingHook() bool { return p.applying }

// applyDownTo applies head tasks in submission order until at most
// target staged tasks remain, returning whether anything was applied.
// It never nests: called while a drain runs, it returns false, and
// anything staged meanwhile waits for the running loop.
func (p *workpool[T]) applyDownTo(target int) bool {
	if p.applying || p.size() <= target {
		return false
	}
	sp := p.trace.BeginArg("pool.drain", int64(p.size()-target))
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
		p.apply(t)
		p.recycle(t)
		applied = true
		if p.head >= 64 && p.head*2 >= len(p.ring) {
			n := copy(p.ring, p.ring[p.head:])
			p.ring = p.ring[:n]
			p.help = max(p.help-p.head, 0)
			p.head = 0
		}
	}
	return applied
}

// await makes a task's distances available, stealing the work if no
// helper has: open tasks (only we can see them) and unclaimed ready
// tasks are computed inline. While a helper holds the task, the applier
// claims and computes the next ready task ahead of it (see computeAhead)
// and re-checks; it yields with Gosched only when nothing ahead is
// ready, so the claiming worker can finish even on a single core.
// Evaluation is pure, so which goroutine computes a task never shows in
// the results: applies still land in stage order.
func (p *workpool[T]) await(t *task[T]) {
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
			if !p.computeAhead() {
				runtime.Gosched()
			}
		case stDone:
			return
		}
	}
}

// computeAhead claims and computes the first ready task behind the
// head, scanning from the help cursor, and reports whether it found
// one. Tasks the scan passes are claimed or done, and stay so until
// they are applied, so the cursor never needs to look back.
func (p *workpool[T]) computeAhead() bool {
	p.help = max(p.help, p.head)
	for ; p.help < len(p.ring); p.help++ {
		t := p.ring[p.help]
		s := t.state.Load()
		gen := s >> 2
		switch s & 3 {
		case stOpen:
			return false
		case stReady:
			if t.state.CompareAndSwap(s, gen<<2|stClaimed) {
				p.help++
				p.execSafe(t, gen)
				return true
			}
		}
	}
	return false
}

// recycle returns an applied task to the freelist under a fresh
// generation, so stale queue items cannot claim its next life.
func (p *workpool[T]) recycle(t *task[T]) {
	gen := t.gen()
	t.state.Store((gen + 1) << 2) // stOpen
	p.free = append(p.free, t)
}
