package serve

import (
	"sync"
	"time"

	"dnnd/internal/engine"
	"dnnd/internal/knng"
	"dnnd/internal/msg"
	"dnnd/internal/obs"
	"dnnd/internal/search"
	"dnnd/internal/wire"
)

// lane is one dispatch shard: it owns a slice of the admission queue,
// its own micro-batch assembly loop, its own engine worker pool, and
// one pooled search.Context per pool worker. Lanes share no mutable
// state on the hot path, so N lanes assemble and execute N
// micro-batches truly concurrently — the single dispatch() goroutine
// and lone execCh of the pre-lane scheduler stop serializing batch
// formation at high qps.
type lane[T wire.Scalar] struct {
	queue chan *request[T]
	pool  *engine.Pool[T]
	sctx  []*search.Context[T] // per pool worker, reused across batches
	batch []*request[T]        // reused micro-batch assembly buffer
	timer *time.Timer          // reused BatchWait window timer

	// Mutable inputs of runBody, set by runBatch before each pool run.
	// Binding runBody once (in New) keeps the ParallelForWorker body
	// off the per-batch heap. snap is the index snapshot pinned for the
	// batch: every query in the batch sees one consistent
	// graph/dataset/tombstone version even if the refiner publishes a
	// new one mid-batch.
	live     []*request[T]
	warmSnap []knng.ID
	snap     *snapshot[T]
	runBody  func(worker, i int)

	track *obs.Track // per-lane span timeline (nil without cfg.Tracer)
	stat  *LaneStat
}

// laneLoop is the lane's dispatcher and executor fused: assemble a
// micro-batch from the lane's queue shard, then execute it inline on
// the lane's own pool. The batching is dynamic, exactly as the old
// single dispatcher: after the first (blocking) take, whatever else is
// already queued is drained greedily up to BatchMax, so batch size
// tracks instantaneous load — singleton batches when idle (no added
// latency), full batches under pressure. A non-zero BatchWait adds a
// bounded wait for the batch to fill, trading tail latency for larger
// batches. The assembly buffer and window timer are reused across
// batches, so a steady-state batch allocates nothing.
func (s *Server[T]) laneLoop(ln *lane[T]) {
	defer s.loopWG.Done()
	for {
		var first *request[T]
		select {
		case first = <-ln.queue:
		case <-s.stop:
			return // stop closes only after the queues drained (see Shutdown)
		}
		batch := append(ln.batch[:0], first)
	greedy:
		for len(batch) < s.cfg.BatchMax {
			select {
			case r := <-ln.queue:
				batch = append(batch, r)
			default:
				break greedy
			}
		}
		if s.cfg.BatchWait > 0 && len(batch) < s.cfg.BatchMax {
			if ln.timer == nil {
				ln.timer = time.NewTimer(s.cfg.BatchWait)
			} else {
				ln.timer.Reset(s.cfg.BatchWait)
			}
		window:
			for len(batch) < s.cfg.BatchMax {
				select {
				case r := <-ln.queue:
					batch = append(batch, r)
				case <-ln.timer.C:
					break window
				case <-s.stop:
					break window
				}
			}
			if !ln.timer.Stop() {
				select { // fired (and maybe consumed): leave it drained for Reset
				case <-ln.timer.C:
				default:
				}
			}
		}
		ln.batch = batch // keep the (possibly grown) buffer
		s.m.Batches.Add(1)
		ln.stat.Batches.Add(1)
		s.m.BatchSize.Observe(int64(len(batch)))
		s.runBatch(ln, batch)
		for i := range batch {
			batch[i] = nil // requests are recycled by finish: drop the refs
		}
	}
}

// runBatch drops queries whose deadline expired while queued, then
// evaluates the rest in parallel on the lane's worker pool, one pooled
// search context per worker. Every request in the batch gets exactly
// one reply.
func (s *Server[T]) runBatch(ln *lane[T], batch []*request[T]) {
	if s.cfg.execHook != nil {
		s.cfg.execHook()
	}
	now := time.Now()
	live := batch[:0]
	for _, r := range batch {
		if !r.deadline.IsZero() && now.After(r.deadline) {
			s.m.DeadlineDropped.Add(1)
			r.res = msg.SResult{
				ID: r.id, Status: msg.SStatusDeadline,
				QueueMicros: saturatingMicros(now.Sub(r.enq)),
			}
			r.echoTrace()
			s.finish(r)
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	// Snapshot the warm cache once per batch (into the lane's reused
	// buffer); queries opt in per request via SFlagWarm.
	ln.warmSnap = ln.warmSnap[:0]
	if s.warm != nil {
		ln.warmSnap = s.warm.snapshotInto(ln.warmSnap)
	}
	sp := ln.track.BeginArg("serve.batch", int64(len(live)))
	ln.stat.Queries.Add(int64(len(live)))
	ln.live = live
	ln.snap = s.cur.Load() // pin one index version for the whole batch
	ln.pool.ParallelForWorker(len(live), ln.runBody)
	ln.live = nil
	ln.snap = nil
	sp.End()
}

// runOne executes a single query on a pooled search context (owned by
// one pool worker for the duration of the batch) and writes its reply.
// The result slice aliases the context's scratch; it is encoded onto
// the wire by finish before the context's next query, so nothing is
// copied.
func (s *Server[T]) runOne(sc *search.Context[T], r *request[T], warmSnap []knng.ID, sn *snapshot[T]) {
	start := time.Now()
	opt := search.Options{L: r.l, Epsilon: r.eps, Deadline: r.deadline, Tombs: sn.tombs}
	if r.warm && len(warmSnap) > 0 {
		// The warm cache is fed from the latest snapshot's results; a
		// batch that pinned an older snapshot across a growing swap must
		// not seed entry points the pinned graph does not have.
		ok := true
		for _, id := range warmSnap {
			if int(id) >= len(sn.data) {
				ok = false
				break
			}
		}
		if ok {
			opt.Entries = warmSnap
			s.m.WarmServed.Add(1)
		}
	}
	var ns []knng.Neighbor
	var st search.Stats
	if sn.quant != nil {
		ns, st = search.SearchQuantCtx(sc, sn.graph, sn.data, s.src.Dist, sn.quant, r.vec, opt, r.seed)
	} else {
		ns, st = search.SearchCtx(sc, sn.graph, sn.data, s.src.Dist, r.vec, opt, r.seed)
	}
	s.m.DistEvals.Add(st.DistEvals)
	s.m.ApproxEvals.Add(st.ApproxEvals)
	status := msg.SStatusOK
	if st.Truncated > 0 {
		status = msg.SStatusPartial
		s.m.DeadlineTruncated.Add(1)
	} else {
		s.m.CompletedOK.Add(1)
	}
	if s.warm != nil {
		s.warm.feed(ns)
	}
	exec := time.Since(start)
	r.res = msg.SResult{
		ID:          r.id,
		Status:      status,
		DistEvals:   st.DistEvals,
		QueueMicros: saturatingMicros(start.Sub(r.enq)),
		ExecMicros:  saturatingMicros(exec),
		Neighbors:   ns,
	}
	r.echoTrace()
	s.m.LatQueue.ObserveDuration(start.Sub(r.enq))
	s.m.LatExec.ObserveDuration(exec)
	s.finish(r)
}

// finish writes the reply held in r.res (encoded zero-copy into the
// connection's write buffer), releases the admission slot, and
// recycles the request. A write failure (client went away) is counted
// but never blocks the drain: the request is still "answered".
func (s *Server[T]) finish(r *request[T]) {
	if err := r.conn.WriteResult(msg.SOpQuery, &r.res); err != nil {
		s.m.WriteErrors.Add(1)
	}
	s.m.LatTotal.ObserveDuration(time.Since(r.enq))
	s.m.Completed.Add(1)
	r.span.End()
	s.cfg.Trace.Counter("serve.inflight", s.m.InFlight.Add(-1))
	s.acc.Gate.Leave()
	s.putRequest(r)
}

func saturatingMicros(d time.Duration) uint32 {
	us := d.Microseconds()
	if us < 0 {
		return 0
	}
	if us > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(us)
}

// warmCache is a small ring of recently-returned good neighbor IDs,
// served as extra search entry points to queries that ask for them
// (SFlagWarm). Fresh results displace the oldest entries; the
// snapshot handed to a batch is a copy, so searches never hold the
// lock.
type warmCache struct {
	mu   sync.Mutex
	ids  []knng.ID
	next int
	full bool
}

func newWarmCache(capacity int) *warmCache {
	return &warmCache{ids: make([]knng.ID, capacity)}
}

// feed records the best few results of a completed query.
func (w *warmCache) feed(ns []knng.Neighbor) {
	take := 2
	if take > len(ns) {
		take = len(ns)
	}
	if take == 0 {
		return
	}
	w.mu.Lock()
	for i := 0; i < take; i++ {
		w.ids[w.next] = ns[i].ID
		w.next++
		if w.next == len(w.ids) {
			w.next = 0
			w.full = true
		}
	}
	w.mu.Unlock()
}

// snapshot copies the current entries (deduplicated lazily by the
// search's visited set, so duplicates here are harmless).
func (w *warmCache) snapshot() []knng.ID {
	return w.snapshotInto(nil)
}

// snapshotInto is snapshot into a reused buffer (per-lane, so batches
// at steady state allocate nothing for it).
func (w *warmCache) snapshotInto(dst []knng.ID) []knng.ID {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.next
	if w.full {
		n = len(w.ids)
	}
	if n == 0 {
		return nil
	}
	return append(dst[:0], w.ids[:n]...)
}

// size reports the number of cached entries (a gauge).
func (w *warmCache) size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.full {
		return len(w.ids)
	}
	return w.next
}
