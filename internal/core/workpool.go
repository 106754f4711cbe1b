package core

import (
	"fmt"
	"math/bits"
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
//   - Helpers CLAIM sealed tasks in stage order, through one atomic
//     cursor, and fill in the distances via eval. They see only
//     immutable inputs (the staged query, vector views, cached norms)
//     and the task-local output slice; they never touch the Comm,
//     builder state, or the RNG.
//   - The owning rank goroutine APPLIES tasks strictly in submission
//     order through apply: the state reads and writes, protocol
//     decisions, counters, and reply sends that depend on a computed
//     distance happen there, serially. Until the head task is done the
//     applier claims through the same cursor, computing the head itself
//     when no helper has it and the tasks behind it when one does. So
//     Workers=1 simply means "no helper goroutines".
//
// Apply points are functions of the STAGE sequence alone, never of
// worker completion timing: the ring drains to half when every slot
// holds a staged task, and drains fully whenever the ygm progress
// engine asks (the barrier/collective local-work hook — see
// internal/ygm/localwork.go, which also keeps quiescence detection
// sound while staged tasks still owe replies). While the ring is being
// applied the comm drains no mailbox and an apply stages nothing, so
// inbound records wait there as compact frame bytes rather than as
// staged tasks, and the ring never holds more than its slots at any
// rank count (see stageCompute). On a single rank the stage sequence is
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
	taskRingSize  = 512 // ring slots, rounded up to a power of two; a full ring drains to half
	taskBatchSize = 64  // max candidates coalesced into one task
)

// resolveWorkers gives each rank its share of the cores: a positive
// configured width (Config.workers, set only by tests) wins; otherwise
// GOMAXPROCS / nranks, clamped to at least the serial pool.
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

// task is one coalesced unit on the ring. Kind and Key are the
// coalescing tags; Query/Vecs/Meta are the staged batch; Dists holds
// the eval output. apply reads them and must not retain them past its
// return (its slot takes a later task).
type task[T wire.Scalar] struct {
	// done holds seq+1 once Dists hold this staging's distances. A slot
	// only ever takes larger sequences, so it never needs resetting.
	done atomic.Int64
	seq  int64 // staging sequence number (picks the slot, drives kernel-time sampling)
	qbuf []T   // private buffer behind copied queries, allocated on first copy

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

type errBox struct{ err error }

// workpool is the deterministic intra-rank worker pool. All staging
// and applying happens on the owning rank's goroutine; only eval runs
// on helpers.
//
// The task with stage sequence s lives in slots[s % len(slots)]. Tasks
// [head, tasksStaged) are on the ring; those below sealed may be
// claimed, and next is the claim cursor: tasks below it are claimed.
// A drain fires the moment the ring holds len(slots) tasks and nothing
// stages during a drain, so a slot is reused only after its previous
// task has been applied, and so computed.
type workpool[T wire.Scalar] struct {
	workers  int
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

	slots  []task[T]
	head   int64 // sequence of the next task to apply
	sealed atomic.Int64
	next   atomic.Int64

	// wake carries one token per seal and is closed by shutdown. It
	// buffers one token per helper: a full buffer already has every
	// helper on its way, and each drains all sealed tasks before
	// sleeping again.
	wake chan struct{}
	wg   sync.WaitGroup

	applying bool // set while applyDownTo runs: nothing may stage
	execErr  atomic.Pointer[errBox]

	// Offload accounting: tasksStaged/candsStaged mirror what was
	// handed to the ring (tasksStaged is also the next stage sequence).
	// kernelNS is wall time spent inside eval (by workers and by the
	// applier alike) on the sampled tasks — timing every task costs two
	// clock reads against kernel batches that can be shorter than the
	// reads, so only tasks whose staging sequence number is a multiple
	// of kernelSampleStride are timed, over sampledCands candidates;
	// kernelTime extrapolates by candidate count. The sampled set is a
	// function of the stage sequence, so it is identical for every
	// worker count.
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
		batchCap: taskBatchSize,
		eval:     eval,
		apply:    apply,
		trace:    trace,
		// A power-of-two slot count makes the slot index a mask.
		slots: make([]task[T], 1<<bits.Len(uint(max(taskRingSize, 2)-1))),
		wake:  make(chan struct{}, workers-1),
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
	close(p.wake)
	p.wg.Wait()
}

// worker computes sealed tasks until none is left, then sleeps until
// the next seal.
func (p *workpool[T]) worker() {
	defer p.wg.Done()
	for range p.wake {
		for p.claim() {
		}
	}
}

// claim takes the task at the claim cursor, if it is sealed, computes
// it and reports whether there was one. Helpers and the applier claim
// through it alike; the CAS gives each task to exactly one of them.
func (p *workpool[T]) claim() bool {
	for {
		s := p.next.Load()
		if s >= p.sealed.Load() {
			return false
		}
		if p.next.CompareAndSwap(s, s+1) {
			p.execSafe(p.slot(s))
			return true
		}
	}
}

// execSafe computes a claimed task, converting a panic into a stored
// error (rethrown on the rank goroutine) and always marking the task
// done so the applier cannot spin forever. The done store is its last
// touch of the task: the slot may be restaged right after.
func (p *workpool[T]) execSafe(t *task[T]) {
	defer func() {
		if r := recover(); r != nil {
			p.execErr.CompareAndSwap(nil, &errBox{fmt.Errorf("core: worker panic: %v", r)})
		}
		t.done.Store(t.seq + 1)
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

func (p *workpool[T]) size() int { return int(p.tasksStaged - p.head) }

// slot returns the task with stage sequence s.
func (p *workpool[T]) slot(s int64) *task[T] { return &p.slots[s&int64(len(p.slots)-1)] }

// sealTail publishes the open tail, if any: it becomes claimable, and
// one helper is woken (non-blocking — a full wake channel already
// holds tokens, so a helper is on its way).
func (p *workpool[T]) sealTail() {
	if p.sealed.Load() == p.tasksStaged {
		return
	}
	p.sealed.Store(p.tasksStaged)
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// stageCompute appends a distance evaluation (query vs vec) to the
// ring, coalescing with the open tail when kind and key match. With
// stable false the query slice may be a transient decode view; it is
// copied on first use. With stable true the caller vouches that query
// is storage that stays valid and unmodified until the task has been
// applied (a dataset row), and the task aliases it instead. vec must
// alias stable storage (the shard). norm is staged when hasNorm;
// mixed-norm tasks disable the norms fast path for safety. It panics
// when called from inside an apply, where the slot the task would take
// may still hold a task the drain has not applied.
func (p *workpool[T]) stageCompute(kind uint8, key uint32, query []T, stable bool, m cand, vec []T, norm float32, hasNorm bool) {
	if p.applying {
		panic("core: a distance was staged during an apply")
	}
	var t *task[T]
	if p.sealed.Load() < p.tasksStaged {
		t = p.slot(p.tasksStaged - 1) // the open tail
		if t.Kind != kind || t.Key != key || len(t.Meta) >= p.batchCap {
			t = nil
		}
	}
	if t == nil {
		p.sealTail()
		t = p.slot(p.tasksStaged)
		t.Kind = kind
		t.Key = key
		t.seq = p.tasksStaged
		t.Vecs = t.Vecs[:0]
		t.norms = t.norms[:0]
		t.Meta = t.Meta[:0]
		if stable {
			t.Query = query[:len(query):len(query)]
		} else {
			t.qbuf = append(t.qbuf[:0], query...)
			t.Query = t.qbuf
		}
		p.tasksStaged++
		p.peakStaged = max(p.peakStaged, p.size())
	}
	t.Meta = append(t.Meta, m)
	t.Vecs = append(t.Vecs, vec)
	if hasNorm {
		t.norms = append(t.norms, norm)
	}
	p.candsStaged++
	// A full ring drains to half. The trigger depends only on
	// staged-task counts — never on worker completion — so it fires at
	// identical points for every worker count. Each staging adds at most
	// one task and none stages during the drain, so the ring never holds
	// more than its slots however much traffic waits in the mailbox
	// (TestStagedWorkStaysWithinRingBound).
	if p.size() >= len(p.slots) {
		p.applyDownTo(len(p.slots) / 2)
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
// It never nests: called while a drain runs, it returns false. While
// the head is not done the applier claims and computes the next task
// itself — the head when no helper has it, else a task behind it — and
// yields with Gosched only when every sealed task is claimed, so the
// holding helper can finish even on a single core. Evaluation is pure,
// so which goroutine computes a task never shows in the results:
// applies still land in stage order.
func (p *workpool[T]) applyDownTo(target int) bool {
	if p.applying || p.size() <= target {
		return false
	}
	sp := p.trace.BeginArg("pool.drain", int64(p.size()-target))
	defer sp.End()
	p.applying = true
	defer func() { p.applying = false }()
	p.sealTail() // let helpers start on the backlog we are about to walk
	for p.size() > target {
		t := p.slot(p.head)
		for t.done.Load() != p.head+1 {
			if !p.claim() {
				runtime.Gosched()
			}
		}
		p.checkErr()
		p.head++
		p.apply(t)
	}
	return true
}
